// Tuple-space index: the one mask-tuple classifier core behind both the
// software slow path (tcam/soft_table) and the TCAM model's lookup
// (tcam/tcam).
//
// Entries are partitioned by their mask *tuple* (the packed 128-bit mask of
// tcam/packed_key.h), and within a tuple every entry is an exact match on
// the masked header bits, so one hash probe per tuple finds all candidates
// (the TupleChain-style structure of PAPERS.md). The index stores no rules:
// an entry is a caller-chosen handle (a pool index, a TCAM address) with a
// rank, and the highest rank among matching entries wins. Ranks must be
// unique among live handles.
//
// Storage is built for the probe. A tuple is its packed mask over one
// power-of-two open-addressing slot array (linear probing, backward-shift
// delete, grown at half load). A 32-byte slot holds the masked key words
// plus the best (rank, handle) of the entries with that match, so one probe
// is two ANDs, one hash and a two-word compare, usually within one cache
// line. Same-match duplicates are chained best-first through a per-handle
// link array that lookups never read. Writes find a mask's tuple through
// one more slot array of the same kind, keyed by mask.
//
// Tuples are probed in a chain sorted by their best rank, with early exit
// once the best hit so far outranks every remaining tuple. A tuple leaves
// the chain, and frees its slots, when its last entry goes. Every mutation
// keeps the chain current, so lookup is strictly const and concurrent
// readers need no synchronization.
#pragma once

#include <cstdint>
#include <vector>

#include "tcam/packed_key.h"

namespace ruletris::tcam {

class TupleSpace {
 public:
  using Handle = uint32_t;
  using Rank = uint64_t;  // higher wins
  static constexpr Handle kNone = ~Handle{0};

  /// The chain's early exit compares ranks with their low `tie_bits` bits
  /// shifted out: a tuple is skipped only once the best hit strictly
  /// outranks the tuple's best at that coarser grain. 0 cuts on full
  /// ranks; SoftTable keeps its insertion-order tie-break in the low 32
  /// bits and cuts on priority alone, as priority chaining does.
  explicit TupleSpace(unsigned tie_bits = 0);

  /// Live tuples (distinct masks) — the per-lookup probe bound.
  size_t tuple_count() const { return masks_.used; }

  /// Adds `h`, which must not be live, with match `m` and rank `rank`.
  void insert(Handle h, const PackedMatch& m, Rank rank);
  /// Removes the live `h`, which was inserted with match `m`.
  void erase(Handle h, const PackedMatch& m);
  /// Sizes the per-handle links for handles below `n` in one allocation.
  void reserve_handles(size_t n) { links_.reserve(n); }
  /// Rank `h` was inserted with; `h` must be live.
  Rank rank(Handle h) const { return links_[h].rank; }

  /// Best-ranked live handle whose match covers `key`, or kNone.
  Handle find(const PackedKey& key) const;

  struct Stats {
    uint64_t lookups = 0;
    uint64_t tuples_probed = 0;  // hash probes actually issued
    double probes_per_lookup() const {
      return lookups == 0 ? 0.0 : static_cast<double>(tuples_probed) /
                                      static_cast<double>(lookups);
    }
  };
  /// Cumulative probe accounting from `find_counted`.
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// find() that also updates stats(); single-threaded callers only.
  Handle find_counted(const PackedKey& key);

 private:
  /// One key of an open-addressing table: in a tuple, a distinct masked
  /// match and the best entry carrying it; in the mask index, a tuple's
  /// mask and its index. 32 bytes.
  struct Slot {
    PackedKey key{};
    Rank rank = 0;          // best entry's rank
    Handle handle = kNone;  // best entry, or tuple index; kNone == free slot
  };

  /// Power-of-two slot array, linear probing, at most half full.
  struct SlotArray {
    std::vector<Slot> slots;
    size_t used = 0;
  };

  struct Link {
    Rank rank = 0;
    Handle next = kNone;  // next-best entry with the same match
    uint32_t tuple = 0;   // owning tuple
  };

  struct Tuple {
    PackedKey mask{};
    Rank max_rank = 0;
    size_t entries = 0;
    SlotArray table;  // distinct matches
  };

  static size_t home(const PackedKey& key, size_t slot_mask);
  /// Slot holding `key` in `a`, or nullptr.
  static const Slot* find_slot(const SlotArray& a, const PackedKey& key);
  static Slot* find_slot(SlotArray& a, const PackedKey& key);
  static void grow(SlotArray& a);
  /// Fills a free slot for the absent `key`, growing `a` at half load.
  static Slot& add_slot(SlotArray& a, const PackedKey& key);
  static void erase_slot(SlotArray& a, Slot* slot);
  /// Points `slot` at `h` as its bucket's best.
  void set_best(Slot& slot, Handle h) const;

  uint32_t add_tuple(const PackedKey& mask, Rank rank);
  void drop_tuple(uint32_t ti);
  /// Moves tuple `ti` to its place in the chain after its max rank changed
  /// to `max_rank`.
  void rechain(uint32_t ti, Rank max_rank);
  /// Chain position of tuple `ti`, found by its current max rank.
  std::vector<uint32_t>::iterator chain_pos(uint32_t ti);
  /// The one lookup core; `count_probe()` runs once per hash probe issued.
  template <typename CountProbe>
  Handle find(const PackedKey& key, CountProbe count_probe) const;

  unsigned tie_bits_;
  std::vector<Tuple> tuples_;  // dropped tuples stay as empty husks for reuse
  std::vector<uint32_t> free_tuples_;
  SlotArray masks_;  // mask -> tuple index, in the same slot tables
  // Live tuple indexes sorted by descending max_rank: the probe chain.
  std::vector<uint32_t> order_;
  std::vector<Link> links_;  // by handle
  Stats stats_;
};

}  // namespace ruletris::tcam
