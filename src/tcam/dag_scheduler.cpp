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
  if (!owns) return ApplyStatus::kTableFull;
  return rollback_open_txn() > 0 ? ApplyStatus::kRolledBack
                                 : ApplyStatus::kTableFull;
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

std::pair<long long, long long> DagScheduler::insert_bounds(RuleId id) const {
  long long lo = -1;
  long long hi = static_cast<long long>(tcam_.capacity());
  for (RuleId pred : graph_.predecessors(id)) {
    if (!tcam_.contains(pred)) continue;
    lo = std::max(lo, static_cast<long long>(tcam_.address_of(pred)));
  }
  for (RuleId succ : graph_.successors(id)) {
    if (!tcam_.contains(succ)) continue;
    hi = std::min(hi, static_cast<long long>(tcam_.address_of(succ)));
  }
  return {lo, hi};
}

long long DagScheduler::lowest_successor_addr(size_t addr) const {
  const RuleId id = *tcam_.at(addr);
  long long out = static_cast<long long>(tcam_.capacity());
  for (RuleId succ : graph_.successors(id)) {
    if (!tcam_.contains(succ)) continue;
    out = std::min(out, static_cast<long long>(tcam_.address_of(succ)));
  }
  return out;
}

long long DagScheduler::highest_predecessor_addr(size_t addr) const {
  const RuleId id = *tcam_.at(addr);
  long long out = -1;
  for (RuleId pred : graph_.predecessors(id)) {
    if (!tcam_.contains(pred)) continue;
    out = std::max(out, static_cast<long long>(tcam_.address_of(pred)));
  }
  return out;
}

std::optional<DagScheduler::Chain> DagScheduler::find_chain_up(
    long long lo_bound, long long hi_bound) const {
  return caps_live() ? find_chain_up_cached(lo_bound, hi_bound)
                     : find_chain_up_legacy(lo_bound, hi_bound);
}

std::optional<DagScheduler::Chain> DagScheduler::find_chain_down(
    long long lo_bound, long long hi_bound) const {
  return caps_live() ? find_chain_down_cached(lo_bound, hi_bound)
                     : find_chain_down_legacy(lo_bound, hi_bound);
}

std::optional<DagScheduler::Chain> DagScheduler::find_chain_up_legacy(
    long long lo_bound, long long hi_bound) const {
  // Nearest free slot above the (full) insert range.
  auto d_opt = tcam_.nearest_free_at_or_above(static_cast<size_t>(lo_bound + 1));
  if (!d_opt) return std::nullopt;
  const long long d = static_cast<long long>(*d_opt);
  // The chain may start by displacing any entry in the range, *including*
  // the lowest successor itself (Algorithm 1's base cases span
  // [r_pre.addr, r_succ.addr]).
  const long long start_hi = std::min(hi_bound, d - 1);
  if (start_hi <= lo_bound) return std::nullopt;

  // Layered jump-BFS: the entry at address a may land on any slot in
  // (a, lowest_successor_addr(a)). The high-water mark keeps this O(span).
  std::unordered_map<long long, long long> parent;  // addr -> previous hop
  std::deque<long long> queue;
  for (long long a = lo_bound + 1; a <= start_hi; ++a) {
    parent[a] = -1;  // chain start: displaced directly by the new rule
    queue.push_back(a);
  }
  long long hwm = start_hi;
  while (!queue.empty()) {
    const long long a = queue.front();
    queue.pop_front();
    // The entry may land on any slot up to and *including* its lowest
    // successor's (Algorithm 1 line 15 is inclusive): landing there
    // displaces the successor, which then continues the chain upward.
    const long long cap = std::min(lowest_successor_addr(static_cast<size_t>(a)), d);
    if (cap >= d) {
      // This entry can land on the free slot: chain complete.
      Chain chain;
      for (long long cur = a; cur != -1; cur = parent.at(cur)) {
        chain.hops.push_back(static_cast<size_t>(cur));
      }
      std::reverse(chain.hops.begin(), chain.hops.end());
      chain.free_slot = static_cast<size_t>(d);
      return chain;
    }
    for (long long j = hwm + 1; j <= cap; ++j) {
      parent[j] = a;
      queue.push_back(j);
    }
    hwm = std::max(hwm, cap);
  }
  return std::nullopt;
}

std::optional<DagScheduler::Chain> DagScheduler::find_chain_down_legacy(
    long long lo_bound, long long hi_bound) const {
  if (hi_bound <= 0) return std::nullopt;
  auto d_opt = tcam_.nearest_free_at_or_below(static_cast<size_t>(hi_bound - 1));
  if (!d_opt) return std::nullopt;
  const long long d = static_cast<long long>(*d_opt);
  const long long start_lo = std::max(lo_bound, d + 1);
  if (start_lo >= hi_bound) return std::nullopt;

  std::unordered_map<long long, long long> parent;
  std::deque<long long> queue;
  for (long long a = hi_bound - 1; a >= start_lo; --a) {
    parent[a] = -2;  // chain start sentinel (−1 is a valid address bound here)
    queue.push_back(a);
  }
  long long lwm = start_lo;
  while (!queue.empty()) {
    const long long a = queue.front();
    queue.pop_front();
    // Inclusive of the highest predecessor's slot (Algorithm 1 line 23):
    // landing there displaces the predecessor further down the chain.
    const long long cap =
        std::max(highest_predecessor_addr(static_cast<size_t>(a)), d);
    if (cap <= d) {
      Chain chain;
      for (long long cur = a; cur != -2; cur = parent.at(cur)) {
        chain.hops.push_back(static_cast<size_t>(cur));
      }
      std::reverse(chain.hops.begin(), chain.hops.end());
      chain.free_slot = static_cast<size_t>(d);
      return chain;
    }
    for (long long j = lwm - 1; j >= cap; --j) {
      parent[j] = a;
      queue.push_back(j);
    }
    lwm = std::min(lwm, cap);
  }
  return std::nullopt;
}

// The cached searches mirror the legacy traversal order exactly — same
// seeds, same FIFO discipline, same water-mark extension — so both modes
// discover the same chains. They differ only in the data structures:
//
//   * each probe is one CapIndex array load instead of an O(degree) scan;
//   * parent links live in an offset-indexed arena (address − range base)
//     and the FIFO is a flat vector with a head cursor. Addresses get their
//     parent written before being enqueued and only enqueued addresses are
//     ever read back, so the arena needs no clearing between searches —
//     resize-only reuse makes steady-state inserts allocation-free.
std::optional<DagScheduler::Chain> DagScheduler::find_chain_up_cached(
    long long lo_bound, long long hi_bound) const {
  auto d_opt = tcam_.nearest_free_at_or_above(static_cast<size_t>(lo_bound + 1));
  if (!d_opt) return std::nullopt;
  const long long d = static_cast<long long>(*d_opt);
  const long long start_hi = std::min(hi_bound, d - 1);
  if (start_hi <= lo_bound) return std::nullopt;

  const long long base = lo_bound + 1;  // candidate hop addresses: [base, d)
  const size_t span = static_cast<size_t>(d - base);
  if (arena_parent_.size() < span) arena_parent_.resize(span);
  arena_queue_.clear();
  for (long long a = base; a <= start_hi; ++a) {
    arena_parent_[static_cast<size_t>(a - base)] = -1;
    arena_queue_.push_back(a);
  }
  long long hwm = start_hi;
  for (size_t head = 0; head < arena_queue_.size(); ++head) {
    const long long a = arena_queue_[head];
    const long long cap = std::min(caps_.lo_succ_at(static_cast<size_t>(a)), d);
    if (cap >= d) {
      Chain chain;
      for (long long cur = a; cur != -1;
           cur = arena_parent_[static_cast<size_t>(cur - base)]) {
        chain.hops.push_back(static_cast<size_t>(cur));
      }
      std::reverse(chain.hops.begin(), chain.hops.end());
      chain.free_slot = static_cast<size_t>(d);
      return chain;
    }
    for (long long j = hwm + 1; j <= cap; ++j) {
      arena_parent_[static_cast<size_t>(j - base)] = a;
      arena_queue_.push_back(j);
    }
    hwm = std::max(hwm, cap);
  }
  return std::nullopt;
}

std::optional<DagScheduler::Chain> DagScheduler::find_chain_down_cached(
    long long lo_bound, long long hi_bound) const {
  if (hi_bound <= 0) return std::nullopt;
  auto d_opt = tcam_.nearest_free_at_or_below(static_cast<size_t>(hi_bound - 1));
  if (!d_opt) return std::nullopt;
  const long long d = static_cast<long long>(*d_opt);
  const long long start_lo = std::max(lo_bound, d + 1);
  if (start_lo >= hi_bound) return std::nullopt;

  const long long base = d + 1;  // candidate hop addresses: (d, hi_bound)
  const size_t span = static_cast<size_t>(hi_bound - base);
  if (arena_parent_.size() < span) arena_parent_.resize(span);
  arena_queue_.clear();
  for (long long a = hi_bound - 1; a >= start_lo; --a) {
    arena_parent_[static_cast<size_t>(a - base)] = -2;
    arena_queue_.push_back(a);
  }
  long long lwm = start_lo;
  for (size_t head = 0; head < arena_queue_.size(); ++head) {
    const long long a = arena_queue_[head];
    const long long cap = std::max(caps_.hi_pred_at(static_cast<size_t>(a)), d);
    if (cap <= d) {
      Chain chain;
      for (long long cur = a; cur != -2;
           cur = arena_parent_[static_cast<size_t>(cur - base)]) {
        chain.hops.push_back(static_cast<size_t>(cur));
      }
      std::reverse(chain.hops.begin(), chain.hops.end());
      chain.free_slot = static_cast<size_t>(d);
      return chain;
    }
    for (long long j = lwm - 1; j >= cap; --j) {
      arena_parent_[static_cast<size_t>(j - base)] = a;
      arena_queue_.push_back(j);
    }
    lwm = std::min(lwm, cap);
  }
  return std::nullopt;
}

void DagScheduler::execute_up(const Chain& chain, const Rule& rule) {
  size_t target = chain.free_slot;
  for (size_t i = chain.hops.size(); i-- > 0;) {
    do_move(chain.hops[i], target);
    target = chain.hops[i];
  }
  do_write(target, rule);
  last_chain_moves_ = chain.hops.size();
}

void DagScheduler::execute_down(const Chain& chain, const Rule& rule) {
  // Identical mechanics; the hop addresses simply descend.
  execute_up(chain, rule);
}

ApplyStatus DagScheduler::insert_status(const Rule& rule) {
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
      caps_live() ? caps_.bounds_of(rule.id, graph_, tcam_) : insert_bounds(rule.id);
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

  // Fast path: a free slot inside the open interval (lo, hi). Prefer the
  // slot nearest the interval midpoint so remaining slack stays balanced for
  // future inserts.
  if (hi - lo > 1) {
    const long long mid = (lo + hi) / 2;
    std::optional<size_t> best;
    auto above = tcam_.nearest_free_at_or_above(static_cast<size_t>(std::max(lo + 1, 0LL)));
    if (above && static_cast<long long>(*above) < hi) best = *above;
    if (placement_ == Placement::kBalanced && mid >= 0) {
      auto below = tcam_.nearest_free_at_or_below(static_cast<size_t>(mid));
      if (below && static_cast<long long>(*below) > lo &&
          static_cast<long long>(*below) < hi) {
        if (!best || std::llabs(static_cast<long long>(*below) - mid) <
                         std::llabs(static_cast<long long>(*best) - mid)) {
          best = *below;
        }
      }
      auto above_mid = tcam_.nearest_free_at_or_above(static_cast<size_t>(mid));
      if (above_mid && static_cast<long long>(*above_mid) < hi &&
          static_cast<long long>(*above_mid) > lo) {
        if (!best || std::llabs(static_cast<long long>(*above_mid) - mid) <
                         std::llabs(static_cast<long long>(*best) - mid)) {
          best = *above_mid;
        }
      }
    }
    if (best) {
      do_write(*best, rule);
      return true;
    }
  }

  auto up = find_chain_up(lo, hi);
  auto down = find_chain_down(lo, hi);
  if (!up && !down) {
    util::log_warn("DagScheduler: TCAM full or no feasible chain for insert");
    return false;
  }
  if (up && (!down || up->hops.size() <= down->hops.size())) {
    execute_up(*up, rule);
  } else {
    execute_down(*down, rule);
  }
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
