#include "tcam/dag_scheduler.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace ruletris::tcam {

using flowspace::RuleId;

DagScheduler::DagScheduler(Tcam& tcam, Placement placement, SearchMode mode)
    : tcam_(tcam), placement_(placement), mode_(mode), caps_(tcam.capacity()) {}

void DagScheduler::load(DependencyGraph graph, Layout layout) {
  if (journaling()) throw std::logic_error("DagScheduler::load: transaction open");
  graph_ = std::move(graph);
  for (PlacedRule& e : layout.entries) tcam_.write(e.addr, std::move(e.rule));
  if (!caps_live()) return;
  if (layout.lo_succ.empty()) {
    caps_.rebuild(tcam_, graph_);
  } else {
    caps_.load_cells(std::move(layout.lo_succ), std::move(layout.hi_pred));
  }
}

void DagScheduler::fire_crash_hook() {
  if (crash_hook_()) {
    throw CrashError("DagScheduler: injected crash inside transaction");
  }
}

// Every primitive has one body: consult the crash hook, execute, fire the
// cap hook, then journal the op if a transaction is open. Crashes are
// injected only at hook consultations, so nothing can tear between the
// execution and its journal entry — the log a crash finds always lists
// exactly the completed prefix, which is what write-ahead intent
// guarantees, without paying existence pre-probes or a second journal
// touch per op.

void DagScheduler::do_write(size_t addr, const Rule& rule) {
  maybe_crash();
  tcam_.write(addr, rule);
  if (caps_live()) caps_.on_write(rule.id, addr, graph_, tcam_);
  if (journaling()) {
    ApplyJournal::Op op;
    op.kind = ApplyJournal::OpKind::kWrite;
    op.to = addr;
    op.u = rule.id;
    journal_->record(op);
  }
}

void DagScheduler::do_move(size_t from, size_t to) {
  maybe_crash();
  tcam_.move(from, to);
  if (caps_live()) caps_.on_move(from, to, graph_, tcam_);
  if (journaling()) {
    ApplyJournal::Op op;
    op.kind = ApplyJournal::OpKind::kMove;
    op.from = from;
    op.to = to;
    journal_->record(op);
  }
}

void DagScheduler::do_erase(size_t addr) {
  maybe_crash();
  // take() moves the dropped entry out: the journal keeps it as the data
  // of the inverse write, which the device no longer holds.
  Rule snapshot = tcam_.take(addr);
  if (caps_live()) caps_.on_erase(snapshot.id, addr, graph_, tcam_);
  if (journaling()) {
    ApplyJournal::Op op;
    op.kind = ApplyJournal::OpKind::kErase;
    op.from = addr;
    op.u = snapshot.id;
    journal_->record(op, std::move(snapshot));
  }
}

void DagScheduler::add_vertex_internal(RuleId v) {
  maybe_crash();
  if (graph_.add_vertex(v) && journaling()) {
    ApplyJournal::Op op;
    op.kind = ApplyJournal::OpKind::kAddVertex;
    op.u = v;
    journal_->record(op);
  }
}

void DagScheduler::add_edge_internal(RuleId u, RuleId v) {
  maybe_crash();
  // add_edge reports exactly what it changed; implicit endpoint creation
  // is journaled as explicit vertex adds (before the edge, so the
  // reverse-order rollback removes the edge first) and a no-op add
  // journals nothing — its rollback must not strip a pre-existing edge.
  const dag::DependencyGraph::EdgeAdd added = graph_.add_edge(u, v);
  if (added.added && caps_live()) caps_.on_add_edge(u, v, graph_, tcam_);
  if (!journaling()) return;
  ApplyJournal::Op op;
  if (added.created_u) {
    op.kind = ApplyJournal::OpKind::kAddVertex;
    op.u = u;
    journal_->record(op);
  }
  if (added.created_v) {
    op.kind = ApplyJournal::OpKind::kAddVertex;
    op.u = v;
    journal_->record(op);
  }
  if (added.added) {
    op.kind = ApplyJournal::OpKind::kAddEdge;
    op.u = u;
    op.v = v;
    journal_->record(op);
  }
}

void DagScheduler::remove_edge_internal(RuleId u, RuleId v) {
  maybe_crash();
  if (!graph_.remove_edge(u, v)) return;
  if (caps_live()) caps_.on_remove_edge(u, v, graph_, tcam_);
  if (journaling()) {
    ApplyJournal::Op op;
    op.kind = ApplyJournal::OpKind::kRemoveEdge;
    op.u = u;
    op.v = v;
    journal_->record(op);
  }
}

void DagScheduler::remove_vertex_internal(RuleId v) {
  if (!graph_.has_vertex(v)) return;
  maybe_crash();
  // remove_vertex drops incident edges implicitly, so this composite is
  // journaled right before it executes: each incident edge as an explicit
  // removal (the rollback restores them exactly), then the vertex. Nothing
  // can crash between the records and the removal.
  if (journaling()) {
    ApplyJournal::Op op;
    op.kind = ApplyJournal::OpKind::kRemoveEdge;
    for (RuleId p : graph_.predecessors(v)) {
      op.u = p;
      op.v = v;
      journal_->record(op);
    }
    for (RuleId s : graph_.successors(v)) {
      op.u = v;
      op.v = s;
      journal_->record(op);
    }
    op.kind = ApplyJournal::OpKind::kRemoveVertex;
    op.u = v;
    op.v = 0;
    journal_->record(op);
  }
  graph_.remove_vertex(v);
  if (caps_live()) caps_.on_remove_vertex(v);
}

bool DagScheduler::begin_txn() {
  if (journal_ == nullptr || journal_->open()) return false;
  journal_->begin(++txn_counter_);
  return true;
}

void DagScheduler::commit_txn(bool owns) {
  if (!owns) return;
  journal_->seal();
  // Crash point at the frame boundary: every op executed, commit pending.
  // Recovery rolls forward (the device already holds the final state).
  maybe_crash();
  journal_->commit();
}

ApplyStatus DagScheduler::fail_txn(bool owns) {
  if (owns) rollback_open_txn();
  return ApplyStatus::kRolledBack;
}

size_t DagScheduler::rollback_open_txn(size_t* undone_writes) {
  // Each inverse op runs through the primitive bodies with the journal
  // detached, so it is neither re-journaled nor a crash point, and the cap
  // cells stay exact.
  ApplyJournal* const journal = journal_;
  journal_ = nullptr;
  const size_t writes_before = tcam_.stats().entry_writes;
  const std::vector<ApplyJournal::Op>& ops = journal->ops();
  for (size_t i = ops.size(); i-- > 0;) {
    const ApplyJournal::Op& op = ops[i];
    switch (op.kind) {
      case ApplyJournal::OpKind::kWrite:
        do_erase(op.to);
        break;
      case ApplyJournal::OpKind::kMove:
        do_move(op.to, op.from);
        break;
      case ApplyJournal::OpKind::kErase:
        do_write(op.from, journal->snapshot(op));
        break;
      case ApplyJournal::OpKind::kAddVertex:
        // Later-journaled incident edges were already undone above, so the
        // vertex is isolated again.
        remove_vertex_internal(op.u);
        break;
      case ApplyJournal::OpKind::kRemoveVertex:
        add_vertex_internal(op.u);
        break;
      case ApplyJournal::OpKind::kAddEdge:
        remove_edge_internal(op.u, op.v);
        break;
      case ApplyJournal::OpKind::kRemoveEdge:
        add_edge_internal(op.u, op.v);
        break;
    }
  }
  const size_t undone = ops.size();
  journal_ = journal;
  journal_->commit();
  if (undone_writes != nullptr) {
    *undone_writes = tcam_.stats().entry_writes - writes_before;
  }
  return undone;
}

DagScheduler::RecoveryResult DagScheduler::recover() {
  RecoveryResult result;
  if (journal_ == nullptr || !journal_->open()) return result;
  if (journal_->sealed()) {
    // Crash fell between seal and commit: every op executed, so the device
    // already holds the fully-applied state. Discard the log.
    journal_->commit();
    result.outcome = RecoveryResult::Outcome::kRolledForward;
    return result;
  }
  result.undone_ops = rollback_open_txn(&result.undone_writes);
  result.outcome = RecoveryResult::Outcome::kRolledBack;
  return result;
}

long long DagScheduler::neighbour_bound(RuleId id, bool successors) const {
  long long out = successors ? static_cast<long long>(tcam_.capacity()) : -1;
  for (RuleId n : successors ? graph_.successors(id) : graph_.predecessors(id)) {
    const std::optional<size_t> addr = tcam_.address_if(n);
    if (!addr) continue;
    const long long a = static_cast<long long>(*addr);
    out = successors ? std::min(out, a) : std::max(out, a);
  }
  return out;
}

// Algorithm 1's two chain directions are mirror images. An upward chain
// starts next to the predecessor bound `lo` and runs to the nearest free
// slot above; each entry may land on any slot up to and *including* its
// lowest successor's (line 15 is inclusive: landing there displaces the
// successor, which continues the chain). A downward chain starts next to
// `hi` and runs to the nearest free slot below, each entry landing down to
// and including its highest predecessor's slot (line 23). Both searches
// walk addresses in steps of `s` (+1 up, -1 down), so a layered jump-BFS
// with one water mark — the farthest address enqueued — serves both and
// stays O(span).
std::optional<DagScheduler::ChainSweep> DagScheduler::chain_sweep(long long lo,
                                                                  long long hi,
                                                                  bool up) const {
  const long long first = up ? lo + 1 : hi - 1;
  if (first < 0) return std::nullopt;
  const std::optional<size_t> free = up
                                         ? tcam_.nearest_free_at_or_above(static_cast<size_t>(first))
                                         : tcam_.nearest_free_at_or_below(static_cast<size_t>(first));
  if (!free) return std::nullopt;
  const long long d = static_cast<long long>(*free);
  // The chain may start by displacing any entry in the range, *including*
  // the bound on the far side (Algorithm 1's base cases span
  // [r_pre.addr, r_succ.addr]), but not the free slot itself.
  const long long last = up ? std::min(hi, d - 1) : std::max(lo, d + 1);
  const long long s = up ? 1 : -1;
  if (s * (last - first) < 0) return std::nullopt;
  return ChainSweep{s, first, last, d};
}

template <typename ParentOf>
DagScheduler::Chain DagScheduler::trace_chain(long long end, long long free_slot,
                                              ParentOf parent_of) {
  Chain chain;
  for (long long cur = end; cur != -1; cur = parent_of(cur)) {
    chain.hops.push_back(static_cast<size_t>(cur));
  }
  std::reverse(chain.hops.begin(), chain.hops.end());
  chain.free_slot = static_cast<size_t>(free_slot);
  return chain;
}

std::optional<DagScheduler::Chain> DagScheduler::find_chain_legacy(long long lo,
                                                                   long long hi,
                                                                   bool up) const {
  const std::optional<ChainSweep> sweep = chain_sweep(lo, hi, up);
  if (!sweep) return std::nullopt;
  const auto [s, first, last, d] = *sweep;
  std::unordered_map<long long, long long> parent;  // addr -> previous hop
  std::deque<long long> queue;
  for (long long a = first; s * (last - a) >= 0; a += s) {
    parent[a] = -1;  // chain start: displaced directly by the new rule
    queue.push_back(a);
  }
  long long wm = last;
  while (!queue.empty()) {
    const long long a = queue.front();
    queue.pop_front();
    const long long bound = neighbour_bound(*tcam_.at(static_cast<size_t>(a)), up);
    const long long reach = up ? std::min(bound, d) : std::max(bound, d);
    if (reach == d) {  // this entry can land on the free slot: chain complete
      return trace_chain(a, d, [&](long long cur) { return parent.at(cur); });
    }
    for (long long j = wm + s; s * (reach - j) >= 0; j += s) {
      parent[j] = a;
      queue.push_back(j);
    }
    if (s * (reach - wm) > 0) wm = reach;
  }
  return std::nullopt;
}

// The cached search mirrors the legacy traversal order exactly — same
// seeds, same FIFO discipline, same water-mark extension — so both modes
// discover the same chains. They differ only in the data structures:
//
//   * each probe is one CapIndex array load instead of an O(degree) scan;
//   * parent links live in an offset-indexed arena (distance from `first`)
//     and the FIFO is a flat vector with a head cursor. Addresses get their
//     parent written before being enqueued and only enqueued addresses are
//     ever read back, so the arena needs no clearing between searches —
//     resize-only reuse makes steady-state inserts allocation-free.
std::optional<DagScheduler::Chain> DagScheduler::find_chain_cached(long long lo,
                                                                   long long hi,
                                                                   bool up) const {
  const std::optional<ChainSweep> sweep = chain_sweep(lo, hi, up);
  if (!sweep) return std::nullopt;
  const auto [s, first, last, d] = *sweep;
  // Candidate hops lie between `first` and the free slot d (exclusive).
  const size_t span = static_cast<size_t>(s * (d - first));
  if (arena_parent_.size() < span) arena_parent_.resize(span);
  auto parent = [&](long long a) -> long long& {
    return arena_parent_[static_cast<size_t>(s * (a - first))];
  };
  arena_queue_.clear();
  for (long long a = first; s * (last - a) >= 0; a += s) {
    parent(a) = -1;
    arena_queue_.push_back(a);
  }
  long long wm = last;
  for (size_t head = 0; head < arena_queue_.size(); ++head) {
    const long long a = arena_queue_[head];
    const size_t at = static_cast<size_t>(a);
    const long long reach = up ? std::min(caps_.lo_succ_at(at), d)
                               : std::max(caps_.hi_pred_at(at), d);
    if (reach == d) return trace_chain(a, d, parent);
    for (long long j = wm + s; s * (reach - j) >= 0; j += s) {
      parent(j) = a;
      arena_queue_.push_back(j);
    }
    if (s * (reach - wm) > 0) wm = reach;
  }
  return std::nullopt;
}

void DagScheduler::execute(const Chain& chain, const Rule& rule) {
  size_t target = chain.free_slot;
  for (size_t i = chain.hops.size(); i-- > 0;) {
    do_move(chain.hops[i], target);
    target = chain.hops[i];
  }
  do_write(target, rule);
  last_chain_moves_ = chain.hops.size();
}

// Claim 1 makes capacity the only way an insert can fail: from a
// non-inverted range a chain reaches the nearest free slot in whichever
// direction has one (each hop lands strictly closer to it), and the
// inverted-range repair frees exactly as many slots as it refills. So an
// update fits exactly when its removals leave a free slot for every insert,
// and one that does not is rejected before anything runs.
bool DagScheduler::fits(size_t inserts, std::span<const RuleId> removed) const {
  const size_t free = tcam_.capacity() - tcam_.occupied();
  if (free < inserts) {
    // Each installed id frees its slot once, however often a batch lists it.
    std::vector<size_t> freed;
    for (RuleId id : removed) {
      if (const std::optional<size_t> addr = tcam_.address_if(id)) freed.push_back(*addr);
    }
    std::sort(freed.begin(), freed.end());
    const auto distinct = std::unique(freed.begin(), freed.end()) - freed.begin();
    if (free + static_cast<size_t>(distinct) < inserts) {
      util::log_warn("DagScheduler: TCAM full, update rejected");
      return false;
    }
  }
  return true;
}

ApplyStatus DagScheduler::insert_status(const Rule& rule) {
  if (!fits(1, {})) return ApplyStatus::kTableFull;
  const bool owns = begin_txn();
  if (!insert_impl(rule, 0)) return fail_txn(owns);
  commit_txn(owns);
  return ApplyStatus::kOk;
}

bool DagScheduler::evict(RuleId id) {
  if (!tcam_.contains(id)) return false;
  const bool owns = begin_txn();
  do_erase(tcam_.address_of(id));
  commit_txn(owns);
  return true;
}

bool DagScheduler::insert_impl(const Rule& rule, int depth) {
  add_vertex_internal(rule.id);
  const auto [lo, hi] =
      caps_live() ? caps_.bounds_of(rule.id, graph_, tcam_)
                  : std::pair{neighbour_bound(rule.id, false), neighbour_bound(rule.id, true)};
  last_chain_moves_ = 0;

  if (lo >= hi) {
    // Inverted range: some predecessor sits at or above the lowest
    // successor. The two are mutually unconstrained, so the layout is
    // legal, but Algorithm 1 has no chain for it (it assumes
    // r_pre.addr < r_succ.addr). Repair by displacing the offending
    // predecessors and re-inserting them below the new rule.
    if (depth > 32) {
      util::log_error("DagScheduler: displacement recursion limit hit");
      return false;
    }
    std::vector<Rule> displaced;
    for (RuleId pred : graph_.predecessors(rule.id)) {
      if (!tcam_.contains(pred)) continue;
      if (static_cast<long long>(tcam_.address_of(pred)) >= hi) {
        displaced.push_back(tcam_.rule(pred));
      }
    }
    // Lowest address first: the TCAM's own order, not the adjacency's.
    std::sort(displaced.begin(), displaced.end(), [this](const Rule& a, const Rule& b) {
      return tcam_.address_of(a.id) < tcam_.address_of(b.id);
    });
    for (const Rule& d : displaced) {
      do_erase(tcam_.address_of(d.id));
    }
    if (!insert_impl(rule, depth + 1)) return false;
    // Re-insert in dependency order among the displaced rules: a rule whose
    // dependencies (successors) are all already placed goes first.
    std::unordered_set<RuleId> remaining;
    for (const Rule& d : displaced) remaining.insert(d.id);
    while (!remaining.empty()) {
      bool progressed = false;
      for (const Rule& d : displaced) {
        if (!remaining.count(d.id)) continue;
        bool blocked = false;
        for (RuleId succ : graph_.successors(d.id)) {
          if (remaining.count(succ)) {
            blocked = true;
            break;
          }
        }
        if (blocked) continue;
        if (!insert_impl(d, depth + 1)) return false;
        remaining.erase(d.id);
        progressed = true;
      }
      if (!progressed) {
        util::log_error("DagScheduler: cyclic displacement set");
        return false;
      }
    }
    return true;
  }

  // Fast path: a free slot inside the open interval (lo, hi). kBalanced
  // prefers the slot nearest the interval midpoint so remaining slack stays
  // balanced for future inserts; ties keep the earlier candidate.
  if (hi - lo > 1) {
    const long long mid = (lo + hi) / 2;
    std::optional<size_t> best;
    auto consider = [&](std::optional<size_t> slot) {
      if (!slot) return;
      const long long a = static_cast<long long>(*slot);
      if (a <= lo || a >= hi) return;
      if (!best || std::llabs(a - mid) < std::llabs(static_cast<long long>(*best) - mid)) {
        best = slot;
      }
    };
    consider(tcam_.nearest_free_at_or_above(static_cast<size_t>(lo + 1)));
    if (placement_ == Placement::kBalanced) {
      consider(tcam_.nearest_free_at_or_below(static_cast<size_t>(mid)));
      consider(tcam_.nearest_free_at_or_above(static_cast<size_t>(mid)));
    }
    if (best) {
      do_write(*best, rule);
      return true;
    }
  }

  const std::optional<Chain> up =
      caps_live() ? find_chain_cached(lo, hi, true) : find_chain_legacy(lo, hi, true);
  const std::optional<Chain> down =
      caps_live() ? find_chain_cached(lo, hi, false) : find_chain_legacy(lo, hi, false);
  // fits() admitted this update, so some slot is free (see there).
  if (!up && !down) throw std::logic_error("DagScheduler: no chain reaches a free slot");
  execute(up && (!down || up->hops.size() <= down->hops.size()) ? *up : *down, rule);
  return true;
}

void DagScheduler::remove(RuleId id) {
  const bool owns = begin_txn();
  if (tcam_.contains(id)) {
    do_erase(tcam_.address_of(id));
  }
  remove_vertex_internal(id);
  commit_txn(owns);
}

ApplyStatus DagScheduler::apply_status(const BackendUpdate& update) {
  if (!fits(update.added.size(), update.removed)) return ApplyStatus::kTableFull;
  const bool owns = begin_txn();
  for (const auto& [u, v] : update.dag.removed_edges) remove_edge_internal(u, v);
  for (RuleId id : update.removed) {
    if (tcam_.contains(id)) do_erase(tcam_.address_of(id));
    remove_vertex_internal(id);
  }
  for (RuleId v : update.dag.added_vertices) add_vertex_internal(v);
  for (const auto& [u, v] : update.dag.added_edges) add_edge_internal(u, v);

  if (update.added.size() <= 1) {
    for (const Rule& r : update.added) {
      if (!insert_impl(r, 0)) return fail_txn(owns);
    }
    commit_txn(owns);
    return ApplyStatus::kOk;
  }

  // Install in dependency order: if a -> b among the new rules, b must be
  // matched first and therefore installed first (local Kahn over the batch).
  // Among ready rules the one listed first in `update.added` goes first, so
  // the order is the update's own, whatever order the adjacency visits.
  const std::vector<Rule>& added = update.added;
  std::unordered_map<RuleId, size_t> position;
  for (size_t i = 0; i < added.size(); ++i) position[added[i].id] = i;
  std::vector<size_t> deps(added.size(), 0);  // # uninstalled successors in batch
  std::priority_queue<size_t, std::vector<size_t>, std::greater<>> ready;
  for (size_t i = 0; i < added.size(); ++i) {
    for (RuleId succ : graph_.successors(added[i].id)) deps[i] += position.count(succ);
    if (deps[i] == 0) ready.push(i);
  }
  size_t installed = 0;
  while (!ready.empty()) {
    const Rule& rule = added[ready.top()];
    ready.pop();
    if (!insert_impl(rule, 0)) return fail_txn(owns);
    ++installed;
    for (RuleId pred : graph_.predecessors(rule.id)) {
      auto it = position.find(pred);
      if (it != position.end() && --deps[it->second] == 0) ready.push(it->second);
    }
  }
  if (installed != update.added.size()) {
    util::log_error("DagScheduler: cyclic dependency among inserted rules");
    return fail_txn(owns);
  }
  commit_txn(owns);
  return ApplyStatus::kOk;
}

bool DagScheduler::layout_valid() const {
  for (const auto& [u, v] : graph_.edges()) {
    // Constraints only bind once both rules are installed (the graph may
    // already know rules that a pending batch will insert later).
    if (!tcam_.contains(u) || !tcam_.contains(v)) continue;
    if (tcam_.address_of(v) <= tcam_.address_of(u)) return false;
  }
  return true;
}

}  // namespace ruletris::tcam
