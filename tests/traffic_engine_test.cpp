// Traffic plane: Zipf/flow generator determinism, tuple-space slow-path
// equivalence with the linear full table and with the node-based reference
// table it replaced (same winner, and no more probes per lookup on average
// than the reference's linear chain), flow-driven (FDRC) admission
// behaviour of the CacheFlow manager under the engine, the batched lookup
// path (classify_batch ≡ classify, blocks split at chunk ends), and one
// golden FDRC run whose decisions (checksums, swaps, entry writes) are
// pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "switchsim/traffic_engine.h"
#include "tcam/packed_key.h"
#include "tcam/soft_table.h"
#include "util/flow_stream.h"
#include "util/zipf.h"

namespace ruletris {
namespace {

using classbench::generate_monitor;
using classbench::generate_router;
using dag::build_min_dag;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;
using switchsim::TrafficConfig;
using switchsim::TrafficEngine;
using switchsim::TrafficReport;
using tcam::CacheFlowManager;
using tcam::PackedKey;
using tcam::SoftTable;
using util::FlowStream;
using util::Rng;
using util::ZipfSampler;

TEST(Zipf, RanksAreInUniverseAndSkewed) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(42);
  std::vector<size_t> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t r = zipf.sample(rng);
    ASSERT_LT(r, 1000u);
    ++counts[r];
  }
  // Heavy head: rank 0 must dominate a deep-tail rank by a wide margin.
  EXPECT_GT(counts[0], 20u * std::max<size_t>(1, counts[900]));
  // And the head ranks outdraw uniform (20 per rank) many times over.
  EXPECT_GT(counts[0], 400u);
}

TEST(Zipf, AlphaZeroIsRoughlyUniform) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(7);
  std::vector<size_t> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_GT(counts[r], 250u) << "rank " << r;  // expected 500 each
    EXPECT_LT(counts[r], 1000u) << "rank " << r;
  }
}

TEST(FlowStream, SameSeedSameStreamAcrossInstancesAndChurn) {
  FlowStream a(0x5eed, 5000, 1.1);
  FlowStream b(0x5eed, 5000, 1.1);
  for (uint64_t e = 0; e < 3; ++e) {
    for (uint64_t i = 0; i < 2000; ++i) {
      const auto ea = a.at(e, i);
      const auto eb = b.at(e, i);
      ASSERT_EQ(ea.rank, eb.rank) << "epoch " << e << " index " << i;
      ASSERT_EQ(ea.flow_id, eb.flow_id);
    }
    ASSERT_EQ(a.churn(e, 50), b.churn(e, 50));
  }
}

TEST(FlowStream, ArrivalsAreIndexAddressableNotSequential) {
  // Counter-based generation: reading indexes out of order (as parallel
  // shards do) yields exactly the in-order stream.
  FlowStream fwd(9, 1000, 1.0);
  FlowStream rev(9, 1000, 1.0);
  std::vector<FlowStream::Event> in_order, reversed(500);
  for (uint64_t i = 0; i < 500; ++i) in_order.push_back(fwd.at(0, i));
  for (uint64_t i = 500; i-- > 0;) reversed[i] = rev.at(0, i);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(in_order[i].rank, reversed[i].rank);
    ASSERT_EQ(in_order[i].flow_id, reversed[i].flow_id);
  }
}

TEST(FlowStream, DistinctSeedsDistinctStreams) {
  FlowStream a(1, 5000, 1.1);
  FlowStream b(2, 5000, 1.1);
  size_t differing = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    if (a.at(0, i).flow_id != b.at(0, i).flow_id) ++differing;
  }
  EXPECT_GT(differing, 450u);  // essentially everywhere
}

TEST(FlowStream, ChurnRemapsIdentityButKeepsRankPopularity) {
  FlowStream s(11, 100, 1.0);
  const uint64_t before = s.flow_id(3);
  // Remap until slot 3 turns over (uniform churn: a few rounds suffice).
  for (uint64_t e = 0; e < 50 && s.flow_id(3) == before; ++e) s.churn(e, 100);
  EXPECT_NE(s.flow_id(3), before);
}

// --- tuple-space slow path ------------------------------------------------

TEST(SoftTable, MatchesLinearScanUnderChurn) {
  Rng rng(21);
  auto rules = generate_monitor(300, rng);  // shared priority bands: real ties
  FlowTable table{rules};
  SoftTable soft(table.rules());
  ASSERT_EQ(soft.size(), table.size());
  ASSERT_LT(soft.tuple_count(), 60u);

  auto check = [&](const char* when) {
    for (int i = 0; i < 400; ++i) {
      const Packet p = switchsim::synth_packet(
          table.rules(), util::hash_pair(97, static_cast<uint64_t>(i)));
      const Rule* lin = table.lookup(p);
      const Rule* tss = soft.lookup(p);
      ASSERT_EQ(lin == nullptr, tss == nullptr) << when;
      if (lin != nullptr) {
        ASSERT_EQ(lin->id, tss->id) << when;
      }
    }
  };
  check("after build");

  // Churn: delete a third, insert fresh rules, re-check equivalence.
  std::vector<RuleId> ids;
  for (const Rule& r : table.rules()) ids.push_back(r.id);
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(table.erase(ids[i]).has_value());
    ASSERT_TRUE(soft.erase(ids[i]));
  }
  check("after erases");
  for (int i = 0; i < 80; ++i) {
    Rule fresh = classbench::random_monitor_rule(300, rng);
    table.insert(fresh);
    soft.insert(fresh);
  }
  check("after inserts");
  ASSERT_EQ(soft.size(), table.size());
}

TEST(SoftTable, IdenticalMatchesSharedBucketTieBreak) {
  // Two rules with the same match: higher priority wins; at equal priority
  // the earlier insert wins (FlowTable's stable order).
  flowspace::TernaryMatch m;
  m.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000, 8);
  const Rule low = Rule::make(m, {flowspace::Action::forward(1)}, 5);
  const Rule high = Rule::make(m, {flowspace::Action::forward(2)}, 9);
  const Rule tie = Rule::make(m, {flowspace::Action::forward(3)}, 9);

  SoftTable soft;
  soft.insert(low);
  soft.insert(high);
  soft.insert(tie);
  Packet p = m.sample_packet();
  ASSERT_NE(soft.lookup(p), nullptr);
  EXPECT_EQ(soft.lookup(p)->id, high.id);  // 9 beats 5; first 9 beats second
  ASSERT_TRUE(soft.erase(high.id));
  EXPECT_EQ(soft.lookup(p)->id, tie.id);
  ASSERT_TRUE(soft.erase(tie.id));
  EXPECT_EQ(soft.lookup(p)->id, low.id);
}

TEST(SoftTable, InsertRejectsInvalidAndDuplicateIds) {
  // FlowTable-equivalent semantics include FlowTable's id contract: a
  // duplicate id or kInvalidRuleId is a caller bug, not a silent no-op.
  flowspace::TernaryMatch m;
  m.set_prefix(flowspace::FieldId::kDstIp, 0x0a000000, 8);
  const Rule first = Rule::make(m, {flowspace::Action::forward(1)}, 5);
  SoftTable soft;
  soft.insert(first);

  Rule same_id = Rule::make(flowspace::TernaryMatch{}, {flowspace::Action::drop()}, 9);
  same_id.id = first.id;
  EXPECT_THROW(soft.insert(same_id), std::invalid_argument);
  Rule no_id = same_id;
  no_id.id = flowspace::kInvalidRuleId;
  EXPECT_THROW(soft.insert(no_id), std::invalid_argument);
  FlowTable table{std::vector<Rule>{first}};
  EXPECT_THROW(table.insert(same_id), std::invalid_argument);

  // Neither rejected rule left a trace.
  EXPECT_EQ(soft.size(), 1u);
  EXPECT_EQ(soft.tuple_count(), 1u);
  const Packet outside = Packet{};  // dst 0.0.0.0: only the wildcard would hit
  EXPECT_EQ(soft.lookup(outside), nullptr);
  ASSERT_NE(soft.lookup(m.sample_packet()), nullptr);
  EXPECT_EQ(soft.lookup(m.sample_packet())->id, first.id);
}

// --- differential: flat tuple tables vs the node-based reference ----------

/// The node-based tuple-space table SoftTable replaced, kept verbatim in
/// behaviour: one std::unordered_map of masked 7-word keys per tuple, each
/// bucket a std::vector of (rule, seq), a priority-ordered linear probe
/// chain with a strict-inequality early exit. It is the oracle for the
/// winner, and its probe count bounds the chained search's on average.
class RefSoftTable {
 public:
  void insert(const Rule& rule) {
    if (by_id_.count(rule.id)) return;
    const Key masks = key_of(rule, &flowspace::FieldTernary::mask);
    auto [it, created] = tuple_index_.try_emplace(masks, tuples_.size());
    if (created) {
      tuples_.emplace_back();
      tuples_.back().masks = masks;
      tuples_.back().max_priority = std::numeric_limits<int32_t>::min();
    }
    Tuple& t = tuples_[it->second];
    const Key values = key_of(rule, &flowspace::FieldTernary::value);
    t.buckets[values].push_back(Entry{rule, next_seq_++});
    ++t.entries;
    by_id_[rule.id] = Locator{it->second, values};
    const bool order_stale = created || rule.priority > t.max_priority;
    t.max_priority = std::max(t.max_priority, rule.priority);
    if (order_stale) refresh_order();
  }

  bool erase(RuleId id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    Tuple& t = tuples_[it->second.tuple];
    auto bit = t.buckets.find(it->second.key);
    auto& entries = bit->second;
    int32_t erased_priority = std::numeric_limits<int32_t>::min();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].rule.id == id) {
        erased_priority = entries[i].rule.priority;
        entries.erase(entries.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    if (entries.empty()) t.buckets.erase(bit);
    --t.entries;
    by_id_.erase(it);
    if (erased_priority == t.max_priority) {
      t.max_priority = std::numeric_limits<int32_t>::min();
      for (const auto& [key, bucket] : t.buckets) {
        for (const Entry& e : bucket) t.max_priority = std::max(t.max_priority, e.rule.priority);
      }
      refresh_order();
    }
    return true;
  }

  /// Highest-priority match; `probes` receives the hash probes issued.
  const Rule* lookup(const Packet& p, uint64_t& probes) const {
    probes = 0;
    const Rule* best = nullptr;
    uint64_t best_seq = 0;
    int32_t best_priority = std::numeric_limits<int32_t>::min();
    for (size_t idx : order_) {
      const Tuple& t = tuples_[idx];
      if (t.entries == 0) continue;
      if (best != nullptr && best_priority > t.max_priority) break;
      ++probes;
      Key key{};
      for (size_t f = 0; f < flowspace::kNumFields; ++f) key[f] = p.fields[f] & t.masks[f];
      auto it = t.buckets.find(key);
      if (it == t.buckets.end()) continue;
      for (const Entry& e : it->second) {
        if (best == nullptr || e.rule.priority > best_priority ||
            (e.rule.priority == best_priority && e.seq < best_seq)) {
          best = &e.rule;
          best_priority = e.rule.priority;
          best_seq = e.seq;
        }
      }
    }
    return best;
  }

 private:
  using Key = std::array<uint32_t, flowspace::kNumFields>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (uint32_t w : k) h = util::hash_pair(h, w);
      return h;
    }
  };
  struct Entry {
    Rule rule;
    uint64_t seq = 0;
  };
  struct Tuple {
    Key masks{};
    std::unordered_map<Key, std::vector<Entry>, KeyHash> buckets;
    int32_t max_priority = 0;
    size_t entries = 0;
  };
  struct Locator {
    size_t tuple = 0;
    Key key{};
  };

  static Key key_of(const Rule& r, uint32_t flowspace::FieldTernary::*part) {
    Key k{};
    for (flowspace::FieldId f : flowspace::kAllFields) {
      k[flowspace::field_index(f)] = r.match.field(f).*part;
    }
    return k;
  }

  void refresh_order() {
    order_.resize(tuples_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
      if (tuples_[a].max_priority != tuples_[b].max_priority) {
        return tuples_[a].max_priority > tuples_[b].max_priority;
      }
      return a < b;
    });
  }

  std::vector<Tuple> tuples_;
  std::unordered_map<Key, size_t, KeyHash> tuple_index_;
  std::vector<size_t> order_;
  std::unordered_map<RuleId, Locator> by_id_;
  uint64_t next_seq_ = 0;
};

/// SoftTable, the reference and the linear FlowTable scan kept in lockstep.
struct Trio {
  SoftTable soft;
  RefSoftTable ref;
  FlowTable table;

  void insert(const Rule& r) {
    soft.insert(r);
    ref.insert(r);
    table.insert(r);
  }
  void erase(RuleId id) {
    ASSERT_TRUE(soft.erase(id));
    ASSERT_TRUE(ref.erase(id));
    ASSERT_TRUE(table.erase(id).has_value());
  }

  /// Same winner in all three; the probes of both tables are summed for
  /// `probes_no_worse`.
  ::testing::AssertionResult agree(const Packet& p) {
    const uint64_t before = soft.stats().tuples_probed;
    const Rule* got = soft.lookup_counted(p);
    probes += soft.stats().tuples_probed - before;
    if (soft.lookup(p) != got) return ::testing::AssertionFailure() << "lookup != lookup_counted";
    uint64_t lookup_ref_probes = 0;
    const Rule* want = ref.lookup(p, lookup_ref_probes);
    ref_probes += lookup_ref_probes;
    const Rule* lin = table.lookup(p);
    const auto id = [](const Rule* r) { return r == nullptr ? flowspace::kInvalidRuleId : r->id; };
    if (id(got) != id(want) || id(got) != id(lin)) {
      return ::testing::AssertionFailure() << "winner " << id(got) << ", reference "
                                           << id(want) << ", linear " << id(lin);
    }
    return ::testing::AssertionSuccess();
  }

  /// The chained search issues no more probes than the reference's linear
  /// chain, on average over every lookup so far.
  ::testing::AssertionResult probes_no_worse() const {
    std::printf("[probes] chained %llu, reference %llu\n",
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(ref_probes));
    if (probes <= ref_probes) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "probes " << probes << ", reference " << ref_probes;
  }

  uint64_t probes = 0;
  uint64_t ref_probes = 0;
};

/// Packets aimed at `rules` (hits, near misses and overlap ambiguities),
/// every fourth one with junk set above each field's width.
std::vector<Packet> probe_packets(const std::vector<Rule>& rules, size_t n, uint64_t salt) {
  std::vector<Packet> out;
  for (size_t i = 0; i < n; ++i) {
    Packet p = switchsim::synth_packet(rules, util::hash_pair(salt, i));
    if (i % 4 == 3) {
      for (flowspace::FieldId f : flowspace::kAllFields) {
        p.fields[flowspace::field_index(f)] |= ~flowspace::field_full_mask(f) & 0xa5a5a5a5u;
      }
    }
    out.push_back(p);
  }
  return out;
}

/// Heavy churn from a rule pool: the first half starts installed; each round
/// erases a random quarter of the installed rules and inserts as many from
/// the rest of the pool (erased rules return later under their old ids).
void churn_against_reference(const std::vector<Rule>& pool, uint64_t seed) {
  Rng rng(seed);
  Trio trio;
  std::vector<Rule> installed(pool.begin(), pool.begin() + pool.size() / 2);
  std::vector<Rule> spare(pool.begin() + pool.size() / 2, pool.end());
  for (const Rule& r : installed) trio.insert(r);
  for (int round = 0; round < 6; ++round) {
    for (const Packet& p : probe_packets(pool, 300, seed * 31 + round)) {
      ASSERT_TRUE(trio.agree(p)) << "seed " << seed << " round " << round;
    }
    for (size_t k = installed.size() / 4; k-- > 0;) {
      const size_t i = rng.next_below(installed.size());
      ASSERT_NO_FATAL_FAILURE(trio.erase(installed[i].id));
      spare.push_back(installed[i]);
      installed[i] = installed.back();
      installed.pop_back();
    }
    for (size_t k = spare.size() / 2; k-- > 0;) {
      const size_t i = rng.next_below(spare.size());
      trio.insert(spare[i]);
      installed.push_back(spare[i]);
      spare[i] = spare.back();
      spare.pop_back();
    }
  }
  ASSERT_EQ(trio.soft.size(), trio.table.size());
  EXPECT_TRUE(trio.probes_no_worse()) << "seed " << seed;
}

TEST(SoftTableDifferential, MonitorChurnMatchesReferenceAndLinearScan) {
  // Wildcard-heavy matches in shared priority bands: many tuples, real
  // priority ties, and duplicate matches from the generator.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed * 101);
    std::vector<Rule> pool = generate_monitor(400, rng);
    for (int i = 0; i < 100; ++i) pool.push_back(classbench::random_monitor_rule(400, rng));
    ASSERT_NO_FATAL_FAILURE(churn_against_reference(pool, seed));
  }
}

TEST(SoftTableDifferential, RouterChurnMatchesReferenceAndLinearScan) {
  for (const uint64_t seed : {4u, 5u}) {
    Rng rng(seed * 101);
    ASSERT_NO_FATAL_FAILURE(churn_against_reference(generate_router(1200, rng), seed));
  }
}

/// A /32 destination rule: every one lands in the same tuple.
Rule host_rule(uint32_t dst, int32_t priority) {
  flowspace::TernaryMatch m;
  m.set_exact(flowspace::FieldId::kDstIp, dst);
  return Rule::make(m, {flowspace::Action::forward(dst & 0xff)}, priority);
}

Packet host_packet(uint32_t dst) {
  Packet p;
  p.set(flowspace::FieldId::kDstIp, dst);
  return p;
}

TEST(SoftTableDifferential, ErasingCollidingClustersKeepsEveryProbeChainIntact) {
  // 24 host routes in one tuple sit in a 64-slot array. Three groups of six
  // share a home slot each, at adjacent homes, so their probe runs merge
  // into one long cluster; erasing a group forces backward shifts through
  // the others. A default route keeps misses answering.
  constexpr size_t kSlots = 64;
  const auto home = [](uint32_t dst) {
    const PackedKey k = tcam::pack_match(host_rule(dst, 0).match).value;
    return util::hash_pair(k[0], k[1]) & (kSlots - 1);
  };
  std::vector<std::vector<uint32_t>> groups(3);
  std::vector<uint32_t> others;
  const auto full = [](const std::vector<uint32_t>& v) { return v.size() == 6; };
  for (uint32_t dst = 0x0a000001;
       !(full(groups[0]) && full(groups[1]) && full(groups[2]) && full(others)); ++dst) {
    const size_t h = home(dst);
    if (h >= 20 && h < 23 && !full(groups[h - 20])) {
      groups[h - 20].push_back(dst);
    } else if ((h < 18 || h > 26) && !full(others)) {
      others.push_back(dst);
    }
  }
  Trio trio;
  trio.insert(Rule::make(flowspace::TernaryMatch{}, {flowspace::Action::drop()}, 0));
  std::vector<Rule> rules;
  for (const auto* set : {&groups[0], &groups[1], &groups[2], &others}) {
    for (uint32_t dst : *set) rules.push_back(host_rule(dst, 10));
  }
  // Interleave the groups so the cluster's slot order mixes them.
  for (size_t i = 0; i < 6; ++i) {
    for (size_t g = 0; g < 4; ++g) trio.insert(rules[g * 6 + i]);
  }
  auto check_all = [&](const char* when) {
    for (const Rule& r : rules) {
      const uint32_t dst = r.match.field(flowspace::FieldId::kDstIp).value;
      ASSERT_TRUE(trio.agree(host_packet(dst))) << when;
    }
  };
  check_all("after build");
  // Erase the middle group, then the first (front to back, then back to
  // front), then re-insert them and erase the last.
  for (size_t i = 0; i < 6; ++i) ASSERT_NO_FATAL_FAILURE(trio.erase(rules[6 + i].id));
  check_all("middle cluster erased");
  for (size_t i = 6; i-- > 0;) ASSERT_NO_FATAL_FAILURE(trio.erase(rules[i].id));
  check_all("first cluster erased");
  for (size_t i = 0; i < 12; ++i) trio.insert(rules[i]);
  check_all("clusters re-inserted");
  for (size_t i = 0; i < 6; ++i) ASSERT_NO_FATAL_FAILURE(trio.erase(rules[12 + i].id));
  check_all("last cluster erased");
  EXPECT_EQ(trio.soft.size(), trio.table.size());
  EXPECT_TRUE(trio.probes_no_worse());
}

TEST(SoftTableDifferential, GrowthPastInitialCapacityKeepsEveryKey) {
  // One tuple grows from its first slot array through many doublings, with
  // erases in between so grown arrays rehash around holes.
  Trio trio;
  std::vector<Rule> rules;
  for (uint32_t i = 0; i < 3000; ++i) {
    rules.push_back(host_rule(0x0b000000 + i * 7919, static_cast<int32_t>(i % 5)));
    trio.insert(rules.back());
    if (i % 3 == 2) {
      ASSERT_NO_FATAL_FAILURE(trio.erase(rules[i - 1].id));
    }
  }
  EXPECT_EQ(trio.soft.tuple_count(), 1u);
  for (const Rule& r : rules) {
    ASSERT_TRUE(trio.agree(host_packet(r.match.field(flowspace::FieldId::kDstIp).value)));
  }
  EXPECT_TRUE(trio.probes_no_worse());
}

TEST(SoftTableDifferential, IdenticalMatchesAtEqualAndDifferentPriorities) {
  // One match carried by six rules: priorities 7, 9, 9, 3, 9, 7 in insert
  // order. Erasing in every rotation walks the best-first chain from each
  // position (head, middle, tail) and re-inserts to the back of ties.
  flowspace::TernaryMatch m;
  m.set_prefix(flowspace::FieldId::kSrcIp, 0xc0a80000, 16);
  m.set_exact(flowspace::FieldId::kIpProto, 6);
  std::vector<Rule> rules;
  for (const int32_t prio : {7, 9, 9, 3, 9, 7}) {
    rules.push_back(Rule::make(m, {flowspace::Action::forward(static_cast<uint32_t>(prio))}, prio));
  }
  const Packet p = m.sample_packet();
  for (size_t rot = 0; rot < rules.size(); ++rot) {
    Trio trio;
    for (const Rule& r : rules) trio.insert(r);
    ASSERT_TRUE(trio.agree(p));
    for (size_t k = 0; k < rules.size(); ++k) {
      const Rule& victim = rules[(rot + k) % rules.size()];
      ASSERT_NO_FATAL_FAILURE(trio.erase(victim.id));
      ASSERT_TRUE(trio.agree(p)) << "rotation " << rot << " after " << k + 1 << " erases";
      if (k % 2 == 0) {  // bring it back: now the latest of its priority
        trio.insert(victim);
        ASSERT_TRUE(trio.agree(p)) << "rotation " << rot << " re-insert " << k;
        ASSERT_NO_FATAL_FAILURE(trio.erase(victim.id));
      }
    }
    EXPECT_EQ(trio.soft.lookup(p), nullptr);
    EXPECT_TRUE(trio.probes_no_worse()) << "rotation " << rot;
  }
}

TEST(SoftTableDifferential, EmptiedTuplesLeaveTheChain) {
  // Rules over 40 distinct masks (src prefix lengths 0..32, then 7 more
  // with dst port 80 exact), then over 5, churn in and out, so whole masks
  // die and come back. The table must hold one tuple per live mask, its
  // winners must still match the reference (which keeps dead tuples and
  // skips them without a probe), and its probes must not exceed it.
  Rng rng(17);
  Trio trio;
  std::vector<Rule> installed;
  for (int round = 0; round < 8; ++round) {
    const size_t masks = round % 2 == 0 ? 40 : 5;
    for (int i = 0; i < 60; ++i) {
      const size_t k = rng.next_below(masks);
      flowspace::TernaryMatch m;
      m.set_prefix(flowspace::FieldId::kSrcIp, rng.next_u32(), static_cast<uint32_t>(k % 33));
      if (k >= 33) m.set_exact(flowspace::FieldId::kDstPort, 80);
      installed.push_back(Rule::make(m, {flowspace::Action::forward(1)},
                                     static_cast<int32_t>(rng.next_below(8))));
      trio.insert(installed.back());
    }
    for (size_t k = installed.size() * 2 / 3; k-- > 0;) {
      const size_t i = rng.next_below(installed.size());
      ASSERT_NO_FATAL_FAILURE(trio.erase(installed[i].id));
      installed[i] = installed.back();
      installed.pop_back();
    }
    std::set<PackedKey> live;
    for (const Rule& r : installed) live.insert(tcam::pack_match(r.match).mask);
    ASSERT_EQ(trio.soft.tuple_count(), live.size()) << "round " << round;
    for (const Packet& p : probe_packets(installed, 200, round)) {
      ASSERT_TRUE(trio.agree(p)) << "round " << round;
    }
  }
  EXPECT_TRUE(trio.probes_no_worse());
}

// --- engine determinism and admission ------------------------------------

TrafficReport engine_run(const FlowTable& fib, const dag::DependencyGraph& graph,
                         CacheFlowManager::AdmissionPolicy policy,
                         size_t threads, uint64_t seed) {
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware,
                       64);
  TrafficConfig cfg;
  cfg.flows = 5000;
  cfg.zipf_alpha = 1.1;
  cfg.churn_rate = 0.01;
  cfg.packets_per_epoch = 4000;
  cfg.epochs = 3;
  cfg.seed = seed;
  cfg.n_threads = threads;
  cfg.policy = policy;
  cfg.rebalance_swaps = 24;
  TrafficEngine engine(mgr, fib.rules(), cfg);
  return engine.run();
}

TEST(TrafficEngine, BitIdenticalAcrossRunsAndThreadCounts) {
  Rng rng(33);
  const FlowTable fib{generate_router(150, rng)};
  const auto graph = build_min_dag(fib);
  const auto fdrc = CacheFlowManager::AdmissionPolicy::kFlowDriven;

  const TrafficReport serial = engine_run(fib, graph, fdrc, 1, 77);
  const TrafficReport pooled = engine_run(fib, graph, fdrc, 4, 77);
  const TrafficReport rerun = engine_run(fib, graph, fdrc, 4, 77);

  EXPECT_EQ(serial.fast_hits, pooled.fast_hits);
  EXPECT_EQ(serial.hit_checksum, pooled.hit_checksum);
  EXPECT_EQ(serial.layout_checksum, pooled.layout_checksum);
  EXPECT_EQ(pooled.hit_checksum, rerun.hit_checksum);
  EXPECT_EQ(pooled.layout_checksum, rerun.layout_checksum);
  EXPECT_EQ(serial.swaps, pooled.swaps);
  EXPECT_EQ(serial.failed_swaps, pooled.failed_swaps);
  EXPECT_EQ(serial.rebalance_early_stops, pooled.rebalance_early_stops);
  EXPECT_EQ(serial.restore_failures, pooled.restore_failures);
  EXPECT_EQ(serial.consistency_violations, 0u);
  EXPECT_EQ(pooled.consistency_violations, 0u);

  const TrafficReport other_seed = engine_run(fib, graph, fdrc, 1, 78);
  EXPECT_NE(serial.hit_checksum, other_seed.hit_checksum);
}

TEST(TrafficEngine, FlowDrivenAdmissionLearnsTheHotSet) {
  Rng rng(44);
  const FlowTable fib{generate_router(200, rng)};
  const auto graph = build_min_dag(fib);

  const TrafficReport stat = engine_run(
      fib, graph, CacheFlowManager::AdmissionPolicy::kStaticDag, 1, 9);
  const TrafficReport flow = engine_run(
      fib, graph, CacheFlowManager::AdmissionPolicy::kFlowDriven, 1, 9);
  EXPECT_EQ(stat.swaps, 0u);  // static never adapts
  EXPECT_GT(flow.swaps, 0u);
  // Steady state (last epoch) must clearly beat the traffic-blind layout.
  EXPECT_GT(flow.epochs.back().hit_rate(), stat.epochs.back().hit_rate());
  EXPECT_EQ(flow.consistency_violations, 0u);
  EXPECT_EQ(stat.consistency_violations, 0u);
}

TEST(TrafficEngine, GoldenFdrcRunPinsEveryDecision) {
  // A fixed FDRC run whose outputs are pinned to constants: per-rule hit
  // counts, the final layout (covers canonicalized), swaps and entry writes.
  // Any change to an admission decision, a chain, a write or a move moves
  // one of them; a pure speed change moves none.
  RuleId ids = RuleId{1} << 40;  // the checksums fold rule ids
  flowspace::ScopedRuleIdNamespace ns(&ids);
  Rng rng(0x601d);
  const FlowTable fib{generate_router(5000, rng)};
  CacheFlowManager mgr(fib.rules(), build_min_dag(fib),
                       CacheFlowManager::Mode::kDagFirmware, 512);
  TrafficConfig cfg;
  cfg.flows = 1 << 16;
  cfg.zipf_alpha = 1.1;
  cfg.churn_rate = 0.01;
  cfg.packets_per_epoch = 10000;
  cfg.epochs = 8;
  cfg.seed = 0x601d;
  cfg.n_threads = 2;
  cfg.policy = CacheFlowManager::AdmissionPolicy::kFlowDriven;
  cfg.rebalance_swaps = 64;
  TrafficEngine engine(mgr, fib.rules(), cfg);
  const TrafficReport r = engine.run();
  EXPECT_EQ(r.hit_checksum, 0x8bd24de19c55ed9eULL);
  EXPECT_EQ(r.layout_checksum, 0xbef85dcbd137c6a2ULL);
  EXPECT_EQ(r.swaps, 508u);
  EXPECT_EQ(r.entry_writes, 596u);
  EXPECT_EQ(r.fast_hits, 48324u);
  EXPECT_EQ(r.consistency_violations, 0u);
}

TEST(TrafficEngine, BlocksSplitAtChunkEndsStayBitIdentical) {
  // 1,003 packets per epoch is no multiple of the 16-packet lookup block,
  // and 2 and 3 shards claim chunks of 62 and 41 packets: blocks end short
  // at every chunk end and at the epoch's end.
  Rng rng(35);
  const FlowTable fib{generate_router(300, rng)};
  const auto graph = build_min_dag(fib);
  std::vector<TrafficReport> reports;
  for (const size_t threads : {1u, 2u, 3u}) {
    CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware, 64);
    TrafficConfig cfg;
    cfg.flows = 5000;
    cfg.zipf_alpha = 1.1;
    cfg.churn_rate = 0.01;
    cfg.packets_per_epoch = 1003;
    cfg.epochs = 4;
    cfg.seed = 91;
    cfg.n_threads = threads;
    cfg.rebalance_swaps = 24;
    TrafficEngine engine(mgr, fib.rules(), cfg);
    reports.push_back(engine.run());
  }
  ASSERT_GT(reports[0].swaps, 0u);
  ASSERT_GT(reports[0].fast_hits, 0u);
  for (size_t t = 1; t < reports.size(); ++t) {
    EXPECT_EQ(reports[t].packets, reports[0].packets) << t + 1 << " threads";
    EXPECT_EQ(reports[t].fast_hits, reports[0].fast_hits) << t + 1 << " threads";
    EXPECT_EQ(reports[t].hit_checksum, reports[0].hit_checksum) << t + 1 << " threads";
    EXPECT_EQ(reports[t].layout_checksum, reports[0].layout_checksum) << t + 1 << " threads";
    EXPECT_EQ(reports[t].swaps, reports[0].swaps) << t + 1 << " threads";
  }
}

TEST(CacheFlowFdrc, InstallCostCountsUncoveredDependencies) {
  Rng rng(55);
  const FlowTable fib{generate_router(80, rng)};
  const auto graph = build_min_dag(fib);
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware,
                       64);

  RuleId dependent = 0;
  for (const Rule& r : fib.rules()) {
    if (!graph.successors(r.id).empty()) {
      dependent = r.id;
      break;
    }
  }
  ASSERT_NE(dependent, 0u);
  const size_t deps = graph.successors(dependent).size();
  EXPECT_EQ(mgr.install_cost(dependent), 1 + deps);
  // Caching every dependency drops the marginal cost to a single entry.
  for (RuleId dep : graph.successors(dependent)) ASSERT_TRUE(mgr.install(dep));
  EXPECT_EQ(mgr.install_cost(dependent), 1u);
}

TEST(CacheFlowFdrc, RebalanceAdmitsTheMeasuredHotRule) {
  Rng rng(66);
  const FlowTable fib{generate_router(80, rng)};
  const auto graph = build_min_dag(fib);
  CacheFlowManager mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware,
                       48);
  mgr.warm(CacheFlowManager::AdmissionPolicy::kStaticDag, 32);

  // Manufacture traffic: one uncached rule gets all the hits.
  RuleId hot = 0;
  for (const Rule& r : fib.rules()) {
    if (!mgr.is_cached(r.id)) {
      hot = r.id;
      break;
    }
  }
  ASSERT_NE(hot, 0u);
  mgr.add_hits(hot, 1000);

  const auto plan = mgr.plan_swaps(4);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front().in, hot);
  EXPECT_GT(mgr.rebalance(CacheFlowManager::AdmissionPolicy::kFlowDriven, 4), 0u);
  EXPECT_TRUE(mgr.is_cached(hot));
}

/// A flow-driven cache over a 2,000-rule FIB with some dependent rules
/// cached too, so a lookup may hit, miss or land on a cover punt.
struct WarmCache {
  FlowTable fib;
  dag::DependencyGraph graph;
  CacheFlowManager mgr;
  std::vector<Packet> packets;

  explicit WarmCache(Rng&& rng)
      : fib(generate_router(2000, rng)),
        graph(build_min_dag(fib)),
        mgr(fib.rules(), graph, CacheFlowManager::Mode::kDagFirmware, 256) {
    for (const Rule& r : fib.rules()) mgr.add_hits(r.id, rng.next_below(5));
    mgr.warm(CacheFlowManager::AdmissionPolicy::kFlowDriven, 180);
    for (const Rule& r : fib.rules()) {
      if (mgr.cover_count() >= 8) break;
      if (!graph.successors(r.id).empty()) mgr.install(r.id);
    }
    for (uint64_t i = 0; i < 6000; ++i) {
      packets.push_back(switchsim::synth_packet(fib.rules(), util::hash_pair(i, 0xc0)));
    }
  }
};

TEST(CacheFlowBatch, ClassifyBatchMatchesClassifyPacketByPacket) {
  WarmCache cache(Rng(88));
  const CacheFlowManager& mgr = cache.mgr;
  size_t fast = 0, misses = 0, punts = 0;
  std::vector<CacheFlowManager::LookupOutcome> want;
  for (const Packet& p : cache.packets) {
    want.push_back(mgr.classify(p));
    const Rule* tcam_hit = mgr.tcam().lookup(p);
    fast += want.back().fast_path;
    misses += tcam_hit == nullptr;
    punts += tcam_hit != nullptr &&
             tcam_hit->actions.contains(flowspace::ActionType::kToSoftware);
  }
  ASSERT_GT(fast, 0u);
  ASSERT_GT(misses, 0u);
  ASSERT_GT(punts, 0u);

  // Slices of every size around the slow path's 16-key group.
  std::vector<CacheFlowManager::LookupOutcome> got(cache.packets.size());
  const std::span<const Packet> all(cache.packets);
  size_t at = 0;
  for (size_t s = 0; at < all.size(); ++s) {
    const size_t n = std::min<size_t>(s % 40, all.size() - at);
    mgr.classify_batch(all.subspan(at, n), std::span(got).subspan(at, n));
    at += n;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].rule, want[i].rule) << "packet " << i;
    ASSERT_EQ(got[i].fast_path, want[i].fast_path) << "packet " << i;
    ASSERT_EQ(got[i].position, want[i].position) << "packet " << i;
  }
  // One call over everything: many groups of punts.
  std::vector<CacheFlowManager::LookupOutcome> whole(all.size());
  mgr.classify_batch(all, whole);
  for (size_t i = 0; i < whole.size(); ++i) ASSERT_EQ(whole[i].rule, want[i].rule) << i;
}

TEST(CacheFlowConcurrency, FourReadersMatchSerialClassify) {
  // The read path (packed TCAM scan + tuple-space fallback) is const: four
  // threads classifying against one frozen cache must each reproduce the
  // serial answers exactly, one packet at a time and in batches. Under the
  // TSAN tree this also proves the path race-free.
  WarmCache cache(Rng(88));
  const CacheFlowManager& mgr = cache.mgr;
  const std::vector<Packet>& packets = cache.packets;
  ASSERT_GT(mgr.cover_count(), 0u);
  using Answer = std::pair<RuleId, bool>;
  auto classify_all = [&mgr, &packets] {
    std::vector<Answer> out;
    out.reserve(packets.size());
    for (const Packet& p : packets) {
      const auto o = mgr.classify(p);
      out.emplace_back(o.rule == nullptr ? flowspace::kInvalidRuleId : o.rule->id,
                       o.fast_path);
    }
    return out;
  };
  const std::vector<Answer> serial = classify_all();
  size_t fast = 0;
  for (const Answer& a : serial) fast += a.second;
  ASSERT_GT(fast, 0u);
  ASSERT_LT(fast, serial.size());

  auto classify_batched = [&mgr, &packets] {
    std::vector<CacheFlowManager::LookupOutcome> outcomes(packets.size());
    mgr.classify_batch(packets, outcomes);
    std::vector<Answer> out;
    out.reserve(packets.size());
    for (const auto& o : outcomes) {
      out.emplace_back(o.rule == nullptr ? flowspace::kInvalidRuleId : o.rule->id, o.fast_path);
    }
    return out;
  };

  std::vector<std::vector<Answer>> parallel(4);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < parallel.size(); ++t) {
    readers.emplace_back([&slot = parallel[t], &classify_all, &classify_batched, t] {
      slot = t % 2 == 0 ? classify_all() : classify_batched();
    });
  }
  for (auto& t : readers) t.join();
  for (size_t t = 0; t < parallel.size(); ++t) {
    EXPECT_EQ(parallel[t], serial) << "reader " << t;
  }
}

}  // namespace
}  // namespace ruletris
