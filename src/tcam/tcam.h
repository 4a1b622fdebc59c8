// TCAM device model.
//
// The TCAM is an addressed array of rule entries where, on a lookup that
// matches several entries, the entry at the HIGHEST physical address wins —
// the physical-location priority encoding used by commodity switching ASICs
// (Sec. II-a). Entry writes are serialized and each costs a fairly constant
// time; the paper's emulation estimates TCAM update time as
// (#entry writes) x 0.6 ms, which this model reproduces. A delete is a mask
// invalidation and is treated as free.
//
// Lookup returns what a hardware TCAM's parallel compare would, without
// touching every row: the installed entries are indexed by mask tuple in a
// tcam::TupleSpace (the same core as the software slow path), with each
// entry's address as both its handle and its rank, so the highest address
// wins. write/move/erase/take keep the index exact before the op observer
// runs, and a lookup binary-searches chains of nested masks instead of
// comparing every row (a warmed 1,024-entry CacheFlow TCAM's 18 masks form
// one chain: ~4 hash probes). A TCAM never looked up keeps one hash table
// per mask, which is cheaper to write.
//
// The TCAM is also the one owner of its occupancy: a Fenwick index kept exact
// by the same four mutators answers the firmwares' "nearest free slot" and
// "k-th occupied slot" queries in O(log n), so no firmware keeps a copy that
// could go stale.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "flowspace/rule.h"
#include "tcam/occupancy.h"
#include "tcam/tuple_space.h"
#include "util/rule_id_map.h"

namespace ruletris::tcam {

using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

/// Average latency of one TCAM entry write/move (paper Sec. VII-A(c)).
inline constexpr double kEntryWriteMs = 0.6;

class Tcam {
 public:
  explicit Tcam(size_t capacity);

  size_t capacity() const { return slots_.size(); }
  size_t occupied() const { return by_id_.size(); }
  size_t free_slots() const { return capacity() - occupied(); }

  bool is_free(size_t addr) const;
  /// Rule id stored at `addr`, or nullopt for a free slot.
  std::optional<RuleId> at(size_t addr) const;
  bool contains(RuleId id) const { return by_id_.find(id) != nullptr; }
  size_t address_of(RuleId id) const;
  /// Address of `id`, or nullopt when not installed — one hash probe where
  /// a contains() + address_of() pair would pay two.
  std::optional<size_t> address_if(RuleId id) const {
    const uint32_t* addr = by_id_.find(id);
    if (addr == nullptr) return std::nullopt;
    return *addr;
  }
  const Rule& rule(RuleId id) const;

  /// Smallest free address >= `from`; nullopt when everything above is full.
  std::optional<size_t> nearest_free_at_or_above(size_t from) const {
    return occupancy_.nearest_free_at_or_above(from);
  }
  /// Largest free address <= `from`; nullopt when everything below is full.
  std::optional<size_t> nearest_free_at_or_below(size_t from) const {
    return occupancy_.nearest_free_at_or_below(from);
  }
  /// Address of the k-th occupied slot (0-based, ascending); nullopt if
  /// fewer than k+1 slots are occupied.
  std::optional<size_t> kth_occupied(size_t k) const {
    return occupancy_.kth_occupied(k);
  }

  /// Installs a new entry into a free slot (1 entry write). The rule id must
  /// not be kInvalidRuleId, which marks free slots.
  void write(size_t addr, Rule rule);

  /// Moves the entry at `from` to the free slot `to` (1 entry write; the old
  /// slot is invalidated for free).
  void move(size_t from, size_t to);

  /// Invalidates the entry at `addr` (free).
  void erase(size_t addr);

  /// erase() that moves the dropped entry out — the journal snapshots it
  /// for the inverse write without a rule copy on the apply fast path.
  Rule take(size_t addr);

  /// Rewrites the actions of an installed entry in place (1 entry write).
  void modify_actions(RuleId id, flowspace::ActionList actions);

  /// Highest-address match wins (hardware lookup semantics).
  const Rule* lookup(const Packet& p) const;

  /// lookup() that also counts index probes into probe_stats();
  /// single-threaded callers only.
  const Rule* lookup_counted(const Packet& p);
  /// Probe counts, chain rebuilds and best-propagation visits of the index.
  const TupleSpace::Stats& probe_stats() const { return index_.stats(); }
  /// The lookup index (chains, marker slots, search depth).
  const TupleSpace& index() const { return index_; }
  /// Distinct masks among the installed entries — the per-lookup probe bound.
  size_t tuple_count() const { return index_.tuple_count(); }

  /// Entries from highest address (matched first) to lowest.
  std::vector<Rule> entries_high_to_low() const;

  struct Stats {
    size_t entry_writes = 0;  // moves + new installs + in-place modifies
    size_t moves = 0;         // subset of entry_writes caused by relocation
    size_t erases = 0;

    double update_time_ms() const {
      return static_cast<double>(entry_writes) * kEntryWriteMs;
    }
  };

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Primitive-operation kinds reported to the observer.
  enum class Op { kWrite, kMove, kErase, kModify };

  /// Observer invoked after every primitive completes, with the device in
  /// its new state. Lets tests verify per-operation atomicity: lookups stay
  /// semantically correct at *every* intermediate step of an update
  /// schedule, which is what makes the paper's move chains hitless.
  using OpObserver = std::function<void(Op op, size_t addr)>;
  void set_op_observer(OpObserver observer) { observer_ = std::move(observer); }

  std::string to_string() const;

 private:
  bool occupied_at(size_t addr) const {
    return slots_[addr].id != flowspace::kInvalidRuleId;
  }
  void notify(Op op, size_t addr) {
    if (observer_) observer_(op, addr);
  }

  // index == physical address; a free slot holds a rule with kInvalidRuleId.
  std::vector<Rule> slots_;
  TupleSpace index_;  // installed matches; handle == rank == address
  OccupancyIndex occupancy_;
  util::RuleIdMap<uint32_t> by_id_;  // id -> address
  Stats stats_;
  OpObserver observer_;
};

}  // namespace ruletris::tcam
