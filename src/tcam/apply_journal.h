// Write-ahead move journal for crash-consistent TCAM updates.
//
// Algorithm 1's move chains are only hitless while they run to completion:
// a firmware crash halfway through a chain leaves entries parked at
// addresses that violate the DAG order the chain was about to restore. The
// journal makes every scheduler transaction recoverable: the log always
// lists exactly the primitives (slot writes, moves, erases, DAG mutations)
// that completed. The scheduler consults the crash hook before each
// primitive and journals it right after it executes (a vertex removal,
// which drops its edges implicitly, right before) — crashes are injected
// only at hook consultations, so nothing can tear between a primitive and
// its journal entry, and the log is observationally identical to
// write-ahead intent. On recovery a torn transaction is undone in reverse —
// every journaled op has an exact inverse (write/erase,
// move(from,to)/move(to,from), each graph delta mirrored) — so the TCAM
// lands in the state equivalent to "update never started". A transaction whose every op executed is sealed before the
// commit point; a crash between seal and commit rolls *forward* (the
// device already holds the fully-applied state, only the journal is
// discarded).
//
// The journal is an in-memory stand-in for the persistent log a real
// firmware would keep in NVRAM; ops_ keeps its capacity across
// transactions, so steady-state journaling allocates nothing.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "flowspace/rule.h"

namespace ruletris::tcam {

/// Thrown by the scheduler's crash-injection hook: models the firmware
/// process dying mid-transaction. The TCAM/journal are left exactly as the
/// crash found them; the owner (test or switch agent) runs recover().
struct CrashError : std::runtime_error {
  explicit CrashError(const char* what) : std::runtime_error(what) {}
};

class ApplyJournal {
 public:
  enum class OpKind : uint8_t {
    kWrite,         // install rule `u` into slot `to`
    kMove,          // relocate slot `from` -> slot `to`
    kErase,         // invalidate slot `from`; `rule` snapshots the entry
    kAddVertex,     // DAG: add vertex `u`
    kRemoveVertex,  // DAG: remove vertex `u` (incident edges journaled first)
    kAddEdge,       // DAG: add edge u -> v
    kRemoveEdge,    // DAG: remove edge u -> v
  };

  static constexpr uint32_t kNoSnapshot = UINT32_MAX;

  /// A journaled primitive. Kept a small trivially-copyable record — the
  /// journal sits on the scheduler's per-op fast path, so recording one
  /// must cost a push_back, not a Rule copy. The kErase entry snapshot
  /// (the one inverse that needs data the device no longer holds) lives in
  /// a side table, referenced by index.
  struct Op {
    flowspace::RuleId u = 0;
    flowspace::RuleId v = 0;
    /// Slot addresses; 32 bits bound the journal at 4G TCAM slots, three
    /// orders of magnitude beyond any real device.
    uint32_t from = 0;
    uint32_t to = 0;
    uint32_t snapshot = kNoSnapshot;  // index into the erase-snapshot table
    OpKind kind = OpKind::kWrite;
  };
  static_assert(sizeof(Op) == 32, "Op sits on the apply fast path");

  /// Opens a transaction. Exactly one may be open at a time.
  void begin(uint64_t txn_id) {
    if (open_) throw std::logic_error("ApplyJournal: transaction already open");
    ops_.clear();
    snapshots_.clear();
    txn_id_ = txn_id;
    open_ = true;
    sealed_ = false;
  }

  /// Records a primitive that has executed (or, for a composite, is about
  /// to with no crash point in between).
  void record(Op op) {
    ops_.push_back(op);
    ++total_recorded_;
  }

  /// record() plus an entry snapshot, for kErase: the inverse write needs
  /// the full rule the device is about to drop.
  void record(Op op, flowspace::Rule snapshot) {
    op.snapshot = static_cast<uint32_t>(snapshots_.size());
    snapshots_.push_back(std::move(snapshot));
    ops_.push_back(op);
    ++total_recorded_;
  }

  /// The erase snapshot an op recorded (op.snapshot != kNoSnapshot).
  const flowspace::Rule& snapshot(const Op& op) const {
    return snapshots_.at(op.snapshot);
  }

  /// Every op of the transaction has executed; only the commit is pending.
  /// A crash after seal() recovers by rolling forward, not back.
  void seal() { sealed_ = true; }

  /// Closes the transaction and discards its log. clear() keeps both
  /// vectors' capacity, so steady-state journaling allocates nothing.
  void commit() {
    ops_.clear();
    snapshots_.clear();
    open_ = false;
    sealed_ = false;
  }

  bool open() const { return open_; }
  bool sealed() const { return sealed_; }
  uint64_t txn_id() const { return txn_id_; }
  size_t size() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }
  /// Lifetime count of recorded ops, across transactions (diagnostics).
  size_t total_recorded() const { return total_recorded_; }

 private:
  std::vector<Op> ops_;
  std::vector<flowspace::Rule> snapshots_;
  size_t total_recorded_ = 0;
  uint64_t txn_id_ = 0;
  bool open_ = false;
  bool sealed_ = false;
};

/// Debug renderings, used by the auditor and the recovery tests.
const char* to_string(ApplyJournal::OpKind kind);
std::string to_string(const ApplyJournal& journal);

}  // namespace ruletris::tcam
