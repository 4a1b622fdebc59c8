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
// Lookup is strictly const (no lazy caches), so concurrent reader shards in
// the traffic engine need no synchronization.
//
// Semantics match FlowTable exactly: highest priority wins, ties broken by
// insertion order (earlier insert wins).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flowspace/rule.h"

namespace ruletris::tcam {

class SoftTable {
 public:
  SoftTable() = default;

  /// Builds from `rules`; vector order defines the priority-tie order,
  /// matching FlowTable's stable sort.
  explicit SoftTable(const std::vector<flowspace::Rule>& rules);

  size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }
  /// Distinct mask tuples — the per-lookup probe bound.
  size_t tuple_count() const { return tuples_.size(); }
  bool contains(flowspace::RuleId id) const { return by_id_.count(id) != 0; }

  void insert(const flowspace::Rule& rule);
  /// Removes by id; false when absent.
  bool erase(flowspace::RuleId id);

  /// Highest-priority match (FlowTable-equivalent), nullptr on miss.
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
  using MaskKey = std::array<uint32_t, flowspace::kNumFields>;

  struct ArrayHash {
    size_t operator()(const MaskKey& k) const;
  };

  struct Entry {
    flowspace::Rule rule;
    uint64_t seq = 0;  // insertion order; lower wins priority ties
  };

  struct Tuple {
    MaskKey masks{};
    // Masked header values -> rules with exactly those values. Nearly always
    // a single entry; duplicates (identical matches at different priorities)
    // share a bucket.
    std::unordered_map<MaskKey, std::vector<Entry>, ArrayHash> buckets;
    int32_t max_priority = 0;
    size_t entries = 0;
  };

  void refresh_order();
  void recompute_max(Tuple& t);
  /// The one lookup core; `count_probe()` runs once per hash probe issued.
  template <typename CountProbe>
  const flowspace::Rule* find(const flowspace::Packet& p, CountProbe count_probe) const;

  std::vector<Tuple> tuples_;
  std::unordered_map<MaskKey, size_t, ArrayHash> tuple_index_;  // masks -> idx
  // Tuple indexes sorted by descending max_priority: the probe chain.
  // Maintained eagerly on every mutation so lookup stays const.
  std::vector<size_t> order_;
  struct Locator {
    size_t tuple = 0;
    MaskKey key{};
  };
  std::unordered_map<flowspace::RuleId, Locator> by_id_;
  uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace ruletris::tcam
