// DAG-guided TCAM update scheduler — Algorithm 1 (Sec. V-A, Claim 1).
//
// Keeps the firmware-side copy of the minimum DAG and maps each rule insert
// to the provably shortest chain of entry moves:
//   1. The insert range is bounded by the rule's highest-addressed
//      predecessor (must stay below the rule) and lowest-addressed successor
//      (must stay above it).
//   2. A free slot inside the range costs a single entry write.
//   3. Otherwise the scheduler runs the shortest-moving-chain search in both
//      directions — a BFS where an entry at address a may hop to any slot
//      up to its own lowest successor (upward) or down to its highest
//      predecessor (downward) — and executes the shorter chain.
//
// Such a chain reaches the nearest free slot whenever there is one (Claim
// 1), so an update fails for capacity exactly when its inserts outnumber
// the free slots left after its removals. apply_status/insert_status check
// that count first and reject an update that cannot fit before it touches
// anything.
//
// Two search implementations coexist (see DESIGN.md "TCAM firmware fast
// path"), each one direction-parameterised function. kCached (default)
// answers every bound/probe from an incrementally maintained CapIndex in
// O(1) and runs the BFS in a reusable flat arena; kLegacy scans the graph
// per probe (O(degree)) and BFSes through an unordered_map — kept for the
// --legacy-search ablation and as the equivalence tests' oracle. Both
// produce bit-identical chains and layouts.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dag/dependency_graph.h"
#include "tcam/apply_journal.h"
#include "tcam/backend_update.h"
#include "tcam/cap_index.h"
#include "tcam/tcam.h"

namespace ruletris::tcam {

using dag::DependencyGraph;

/// Structured outcome of an update transaction. kTableFull: the update's
/// inserts outnumber the free slots its removals would leave; it was
/// rejected before anything executed (no primitive, journal record or
/// crash-hook consultation), with or without a journal. kRolledBack: the
/// update was malformed — a dependency cycle among its rules, or an
/// inverted-range repair past its depth limit — and failed partway; with a
/// journal the executed prefix was undone, so the device equals its
/// pre-update state, without one the prefix stays.
enum class ApplyStatus : uint8_t { kOk = 0, kTableFull = 1, kRolledBack = 2 };

inline const char* to_string(ApplyStatus s) {
  switch (s) {
    case ApplyStatus::kOk: return "ok";
    case ApplyStatus::kTableFull: return "table_full";
    case ApplyStatus::kRolledBack: return "rolled_back";
  }
  return "?";
}

class DagScheduler {
 public:
  /// Free-slot placement policy for inserts whose range holds several free
  /// slots. kBalanced (default) picks the slot nearest the range midpoint,
  /// preserving slack for future chains; kFirstFree takes the lowest slot
  /// (naive firmware behaviour, kept for the ablation bench).
  enum class Placement { kBalanced, kFirstFree };

  /// kCached: O(1) cap probes + flat-arena BFS. kLegacy: the original
  /// O(degree)-per-probe search, for ablation/equivalence.
  enum class SearchMode { kCached, kLegacy };

  explicit DagScheduler(Tcam& tcam, Placement placement = Placement::kBalanced,
                        SearchMode mode = SearchMode::kCached);

  /// Applies one incremental update: edge removals, rule deletions, DAG
  /// additions, then rule inserts in dependency order. An update that
  /// cannot fit returns kTableFull untouched (see ApplyStatus). With a
  /// journal attached the whole update is one recoverable transaction.
  ApplyStatus apply_status(const BackendUpdate& update);
  bool apply(const BackendUpdate& update) {
    return apply_status(update) == ApplyStatus::kOk;
  }

  /// Inserts one rule whose vertex/edges are already in the graph;
  /// kTableFull, untouched, when no slot is free.
  ApplyStatus insert_status(const Rule& rule);
  bool insert(const Rule& rule) {
    return insert_status(rule) == ApplyStatus::kOk;
  }

  /// Attaches (or detaches, with nullptr) the write-ahead journal; not
  /// owned. With a journal every apply/insert/evict/remove runs as a
  /// recoverable transaction. load() is not journaled.
  void set_journal(ApplyJournal* journal) { journal_ = journal; }
  ApplyJournal* journal() const { return journal_; }

  /// Crash-injection hook, consulted once per primitive (before it
  /// executes and is journaled) and once at the commit point (after
  /// seal). Returning true throws CrashError, leaving the torn
  /// transaction for recover(). Only consulted while a journal transaction
  /// is open.
  void set_crash_hook(std::function<bool()> hook) {
    crash_hook_ = std::move(hook);
  }

  struct RecoveryResult {
    enum class Outcome {
      kClean,          // no torn transaction; nothing to do
      kRolledBack,     // unsealed txn undone; device == pre-update state
      kRolledForward,  // sealed txn committed; device == fully-applied state
    };
    Outcome outcome = Outcome::kClean;
    size_t undone_ops = 0;     // journal ops undone (TCAM + DAG)
    size_t undone_writes = 0;  // TCAM entry writes the undo cost (x 0.6 ms)
  };

  /// Replays the journal after a crash: commits a sealed transaction
  /// (roll-forward) or undoes an unsealed one in reverse (rollback). The
  /// undo runs through the same primitives as the update, so occupancy and
  /// the cap cells are exact when it returns.
  RecoveryResult recover();

  /// One entry of a frozen layout: `rule` sits at exactly `addr`.
  struct PlacedRule {
    size_t addr = 0;
    Rule rule;
  };
  /// A frozen TCAM layout (warm boot) and, optionally, the cap cells it
  /// implies (one pair per TCAM address, see CapIndex::load_cells) — frozen
  /// restore derives them from the blob's flat index/address arrays, which
  /// is cheaper than recomputing them from the graph.
  struct Layout {
    std::vector<PlacedRule> entries;
    std::vector<long long> lo_succ;  // empty: rebuild the cells
    std::vector<long long> hi_pred;
  };

  /// Bulk load, the one way to set the graph wholesale: replaces it with
  /// `graph`, writes every `layout` entry at its address (each slot must be
  /// free; no chain search, no journal — a frozen layout already satisfies
  /// every DAG constraint), then sets the cap cells from the layout's cells
  /// or, when it carries none, rebuilds them from the graph and the TCAM.
  /// No transaction may be open.
  void load(DependencyGraph graph, Layout layout = {});

  /// The live cap cells, for differential tests against a fresh rebuild.
  /// Exact in kCached mode (kLegacy does not maintain them).
  const CapIndex& caps() const { return caps_; }

  /// Erases the rule's TCAM entry but keeps its vertex and edges — the
  /// CacheFlow-style eviction primitive. Returns false if not installed.
  bool evict(flowspace::RuleId id);

  void remove(flowspace::RuleId id);

  size_t capacity() const { return tcam_.capacity(); }

  /// Read-only: the graph changes only through updates and load(), which
  /// keep the cap cells exact.
  const DependencyGraph& graph() const { return graph_; }

  /// Length (number of entry moves, excluding the final new-entry write) of
  /// the chain the last insert executed. For diagnostics and optimality
  /// tests.
  size_t last_chain_moves() const { return last_chain_moves_; }

  /// Verifies that the current layout satisfies every DAG constraint
  /// (every edge u->v has addr(v) > addr(u)). For tests.
  bool layout_valid() const;

 private:
  struct Chain {
    // Addresses whose entries move one hop along the chain, ordered from
    // the insert-range slot outward; `free_slot` terminates it.
    std::vector<size_t> hops;
    size_t free_slot = 0;
  };

  /// Lowest installed successor address of `id` (capacity when none), or
  /// with `successors` false its highest installed predecessor address (-1
  /// when none): the legacy O(degree) probe, and its insert bounds.
  long long neighbour_bound(flowspace::RuleId id, bool successors) const;

  /// Whether `inserts` rules fit once the installed ids of `removed` are
  /// erased (each counted once); logs the rejection when they do not.
  bool fits(size_t inserts, std::span<const flowspace::RuleId> removed) const;

  /// insert() body; `depth` bounds the displace-and-reinsert repair used
  /// when the insert range is inverted (predecessor above successor).
  /// Fails only on the repair's depth and cycle guards.
  bool insert_impl(const Rule& rule, int depth);

  /// One chain search's extent, walking addresses in steps of `step` (+1
  /// up, -1 down): seeds run from `first` (next to the range edge it
  /// leaves) through `last`, and `free_slot` ends every chain.
  struct ChainSweep {
    long long step, first, last, free_slot;
  };
  std::optional<ChainSweep> chain_sweep(long long lo, long long hi, bool up) const;
  /// The shortest chain from the insert range (lo, hi) to the nearest free
  /// slot above (`up`) or below it; nullopt when that side has no free slot.
  std::optional<Chain> find_chain_cached(long long lo, long long hi, bool up) const;
  std::optional<Chain> find_chain_legacy(long long lo, long long hi, bool up) const;
  template <typename ParentOf>
  static Chain trace_chain(long long end, long long free_slot, ParentOf parent_of);

  void execute(const Chain& chain, const Rule& rule);

  // All TCAM/graph mutations funnel through these primitives. Each has one
  // body: consult the crash hook, execute, fire the cap hook (kCached mode),
  // then journal the op if a transaction is open. Rollback replays inverse
  // ops through the same bodies with the journal detached.
  void do_write(size_t addr, const Rule& rule);
  void do_move(size_t from, size_t to);
  void do_erase(size_t addr);
  void add_vertex_internal(flowspace::RuleId v);
  void add_edge_internal(flowspace::RuleId u, flowspace::RuleId v);
  void remove_edge_internal(flowspace::RuleId u, flowspace::RuleId v);
  void remove_vertex_internal(flowspace::RuleId v);
  bool caps_live() const { return mode_ == SearchMode::kCached; }

  bool journaling() const { return journal_ != nullptr && journal_->open(); }
  /// Fires the crash hook inside an open transaction; throws CrashError.
  /// Inline fast path: the hook is usually unset, and this sits on every
  /// primitive.
  void maybe_crash() {
    if (crash_hook_ && journaling()) fire_crash_hook();
  }
  void fire_crash_hook();
  /// Opens a journal transaction if a journal is attached and none is open.
  /// Returns whether this call owns (and must close) the transaction.
  bool begin_txn();
  /// Seals and commits an owned transaction; the seal->commit gap is a
  /// crash point (recovery then rolls forward).
  void commit_txn(bool owns);
  /// Malformed-input failure path: rolls back an owned open transaction;
  /// returns kRolledBack.
  ApplyStatus fail_txn(bool owns);
  /// Undoes every op of the open transaction in reverse, then clears it.
  /// Returns the op count undone; `undone_writes` (optional) receives the
  /// TCAM entry writes the undo itself cost.
  size_t rollback_open_txn(size_t* undone_writes = nullptr);

  Tcam& tcam_;
  DependencyGraph graph_;
  Placement placement_ = Placement::kBalanced;
  SearchMode mode_ = SearchMode::kCached;
  CapIndex caps_;
  size_t last_chain_moves_ = 0;
  ApplyJournal* journal_ = nullptr;  // not owned
  std::function<bool()> crash_hook_;
  uint64_t txn_counter_ = 0;

  // Reusable flat-arena BFS state: offset-indexed parent slots plus a flat
  // FIFO (head cursor instead of pop_front). assign()/clear() never shrink
  // capacity, so steady-state inserts allocate nothing.
  mutable std::vector<long long> arena_parent_;
  mutable std::vector<long long> arena_queue_;
};

}  // namespace ruletris::tcam
