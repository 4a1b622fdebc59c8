// Software slow-path classifier: tuple-space search with priority chaining.
//
// CacheFlow punts TCAM misses to software, where the full rule table lives.
// A linear scan is O(rules) per packet — hopeless at the table sizes the
// traffic engine drives (10^5..10^6 rules). This is the TupleChain-style
// alternative (PAPERS.md): rules are partitioned by their mask *tuple* (the
// per-field mask vector), and within a tuple every rule is an exact match on
// the masked header bits, so one hash probe per tuple finds all candidates.
// Real OpenFlow-ish tables have tens of distinct tuples for 10^5+ rules, and
// the probe order is chained by per-tuple max priority with early exit —
// once the best hit so far outranks every remaining tuple, the lookup stops.
//
// Storage is built for the probe. A tuple is its packed mask (two u64 words,
// tcam/packed_key.h, the same packing TCAM rows use) over one power-of-two
// open-addressing slot array (linear probing, backward-shift delete). A slot
// holds the masked key words plus the best (priority, seq, entry) of the
// rules with that match, so one probe is two ANDs, one hash and a two-word
// compare, usually within one cache line. The rules themselves, and any
// same-match duplicates (chained best-first), sit in an entry pool that a
// lookup reads only to return the final winner.
//
// Lookup is strictly const (no lazy caches), so concurrent reader shards in
// the traffic engine need no synchronization.
//
// Semantics match FlowTable exactly: highest priority wins, ties broken by
// insertion order (earlier insert wins); insert rejects kInvalidRuleId and
// duplicate ids.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flowspace/rule.h"
#include "tcam/packed_key.h"
#include "tcam/rule_id_map.h"

namespace ruletris::tcam {

class SoftTable {
 public:
  SoftTable() = default;

  /// Builds from `rules`; vector order defines the priority-tie order,
  /// matching FlowTable's stable sort.
  explicit SoftTable(const std::vector<flowspace::Rule>& rules);

  size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.size() == 0; }
  /// Distinct mask tuples — the per-lookup probe bound.
  size_t tuple_count() const { return tuples_.size(); }
  bool contains(flowspace::RuleId id) const { return by_id_.find(id) != nullptr; }

  /// Throws std::invalid_argument for kInvalidRuleId or an id already in
  /// the table, as FlowTable::insert does.
  void insert(const flowspace::Rule& rule);
  /// Removes by id; false when absent.
  bool erase(flowspace::RuleId id);

  /// Highest-priority match (FlowTable-equivalent), nullptr on miss. The
  /// pointer stays valid until the next insert or erase.
  const flowspace::Rule* lookup(const flowspace::Packet& p) const;

  struct Stats {
    uint64_t lookups = 0;
    uint64_t tuples_probed = 0;  // hash probes actually issued
    double probes_per_lookup() const {
      return lookups == 0 ? 0.0 : static_cast<double>(tuples_probed) /
                                      static_cast<double>(lookups);
    }
  };
  /// Cumulative probe accounting from `lookup_counted`.
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// lookup() that also updates stats(); single-threaded callers only.
  const flowspace::Rule* lookup_counted(const flowspace::Packet& p);

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// One distinct match of a tuple: its masked key words and the best rule
  /// carrying that match. 32 bytes, so two share a cache line.
  struct alignas(32) Slot {
    PackedKey key{};
    int32_t priority = 0;
    uint32_t entry = kNone;  // best entry's pool index; kNone == free slot
    uint64_t seq = 0;        // best entry's insertion order
  };

  struct Entry {
    flowspace::Rule rule;
    uint64_t seq = 0;        // insertion order; lower wins priority ties
    uint32_t tuple = 0;      // owning tuple
    uint32_t next = kNone;   // next-best entry with the same match
  };

  struct Tuple {
    PackedKey mask{};
    int32_t max_priority = 0;
    size_t entries = 0;
    size_t used = 0;          // occupied slots (distinct matches)
    std::vector<Slot> slots;  // power-of-two size, at most half full
  };

  struct KeyHash {
    size_t operator()(const PackedKey& k) const;
  };

  static size_t home(const PackedKey& key, size_t slot_mask);
  /// Slot holding `key` in `t`, or nullptr.
  static const Slot* find_slot(const Tuple& t, const PackedKey& key);
  static Slot* find_slot(Tuple& t, const PackedKey& key);
  static void grow(Tuple& t);
  static void erase_slot(Tuple& t, Slot* slot);
  /// Points `slot` at pool entry `idx` as its bucket's best.
  void set_best(Slot& slot, uint32_t idx) const;

  uint32_t alloc_entry(const flowspace::Rule& rule, uint32_t tuple);
  void refresh_order();
  void recompute_max(Tuple& t);
  /// The one lookup core; `count_probe()` runs once per hash probe issued.
  template <typename CountProbe>
  const flowspace::Rule* find(const flowspace::Packet& p, CountProbe count_probe) const;

  std::vector<Tuple> tuples_;
  std::unordered_map<PackedKey, uint32_t, KeyHash> tuple_index_;  // mask -> idx
  // Tuple indexes sorted by descending max_priority: the probe chain.
  // Maintained eagerly on every mutation so lookup stays const.
  std::vector<uint32_t> order_;
  std::vector<Entry> pool_;
  std::vector<uint32_t> free_;  // recycled pool indexes
  RuleIdMap<uint32_t> by_id_;   // id -> pool index
  uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace ruletris::tcam
