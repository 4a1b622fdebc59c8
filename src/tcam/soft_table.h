// Software slow-path classifier: tuple-space search with priority chaining.
//
// CacheFlow punts TCAM misses to software, where the full rule table lives.
// A linear scan is O(rules) per packet — hopeless at the table sizes the
// traffic engine drives (10^5..10^6 rules). This is the TupleChain-style
// alternative (PAPERS.md): rules are partitioned by their mask tuple, one
// hash probe per tuple finds all candidates, nested tuples form chains that
// are binary-searched, and chains are probed by max priority with early
// exit. Real OpenFlow-ish tables have tens of distinct tuples for 10^5+
// rules (a 100k-rule FIB's 25 nest into one chain: ~3 probes per lookup).
//
// The tuples, chains and slots are tcam::TupleSpace, the same core the TCAM
// model's lookup runs on, bulk-built by the constructor. This class is its
// rule pool: the rules live here, indexed by pool position, and a rule's
// rank is its priority with its insertion order below it, so a lookup
// reads the pool once, for the final winner.
//
// Lookup is strictly const (no lazy caches), so concurrent reader shards in
// the traffic engine need no synchronization.
//
// Semantics match FlowTable exactly: highest priority wins, ties broken by
// insertion order (earlier insert wins); insert rejects kInvalidRuleId and
// duplicate ids.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flowspace/rule.h"
#include "tcam/tuple_space.h"
#include "util/rule_id_map.h"

namespace ruletris::tcam {

class SoftTable {
 public:
  SoftTable() = default;

  /// Builds from `rules` in one pass (TupleSpace::assign); vector order
  /// defines the priority-tie order, matching FlowTable's stable sort, and
  /// `rules[i]` gets handle i.
  explicit SoftTable(const std::vector<flowspace::Rule>& rules);

  size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.size() == 0; }
  /// Distinct mask tuples — the per-lookup probe bound.
  size_t tuple_count() const { return index_.tuple_count(); }
  bool contains(flowspace::RuleId id) const { return by_id_.find(id) != nullptr; }

  /// Throws std::invalid_argument for kInvalidRuleId or an id already in
  /// the table, as FlowTable::insert does.
  void insert(const flowspace::Rule& rule);
  /// Removes by id; false when absent.
  bool erase(flowspace::RuleId id);

  /// Highest-priority match (FlowTable-equivalent), nullptr on miss. The
  /// pointer stays valid until the next insert or erase.
  const flowspace::Rule* lookup(const flowspace::Packet& p) const;
  /// lookup() of every packet at once: `out[j] = lookup(packets[j])`, with
  /// `out` as long as `packets`. The index descends each group of
  /// TupleSpace::kBatch keys together (TupleSpace::find_batch), so their
  /// cache misses overlap. Const, like lookup().
  void lookup_batch(std::span<const flowspace::Packet> packets,
                    std::span<const flowspace::Rule*> out) const;
  /// Pool handle of a rule lookup() returned: its index in the constructor's
  /// vector while nothing has been erased.
  uint32_t handle_of(const flowspace::Rule* r) const {
    return static_cast<uint32_t>(r - pool_.data());
  }
  /// The rule under a live handle.
  const flowspace::Rule& at(uint32_t handle) const { return pool_[handle]; }

  using Stats = TupleSpace::Stats;
  /// Cumulative probe accounting from `lookup_counted`, and the index's
  /// write-side counters.
  const Stats& stats() const { return index_.stats(); }
  /// The tuple-space index (chains, marker slots, search depth).
  const TupleSpace& index() const { return index_; }
  void reset_stats() { index_.reset_stats(); }

  /// lookup() that also updates stats(); single-threaded callers only.
  const flowspace::Rule* lookup_counted(const flowspace::Packet& p);

 private:
  /// Low rank bits holding insertion order; the chain cuts on the rest.
  static constexpr unsigned kSeqBits = 32;
  static constexpr uint64_t kSeqLimit = uint64_t{1} << kSeqBits;

  /// Checks `rule`'s id, files it in the pool and the id map, and returns
  /// its handle; throws as insert() does.
  uint32_t add_rule(const flowspace::Rule& rule);
  /// Higher priority first, then earlier insert.
  static TupleSpace::Rank rank_of(int32_t priority, uint64_t seq);
  /// Rebuilds from the live rules, oldest first, once `next_seq_` runs out
  /// of rank bits: seqs become dense again and every tie-break survives.
  void resequence();

  TupleSpace index_{kSeqBits};
  std::vector<flowspace::Rule> pool_;  // by handle; a free entry has kInvalidRuleId
  std::vector<uint32_t> free_;         // recycled pool indexes
  util::RuleIdMap<uint32_t> by_id_;          // id -> pool index
  uint64_t next_seq_ = 0;
};

}  // namespace ruletris::tcam
