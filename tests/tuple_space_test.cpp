// tcam::TupleSpace against a brute-force oracle: the highest rank among the
// live entries whose match covers the key. Random insert/erase churn and
// Tcam write/move/erase/take streams run over three kinds of masks (nested
// dst prefixes that form one long chain, classbench monitor and firewall
// masks that form many short ones, and equal priorities under tie_bits 32),
// and after every round the index must keep its invariants: every chain is
// strictly nested, tuple_count() equals the live masks, no lookup probes
// more than the summed search-tree depths, and the batched lookup
// (find_batch) answers and probes exactly as find() does key by key.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "classbench/generator.h"
#include "tcam/packed_key.h"
#include "tcam/tcam.h"
#include "tcam/tuple_space.h"
#include "util/rng.h"

namespace ruletris {
namespace {

using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::Rule;
using flowspace::TernaryMatch;
using tcam::PackedKey;
using tcam::PackedMatch;
using tcam::Tcam;
using tcam::TupleSpace;
using util::Rng;

using Handle = TupleSpace::Handle;
using Rank = TupleSpace::Rank;

/// A dst prefix of length `len` under one of a few /8 roots, so prefixes of
/// different lengths extend each other and share marker keys.
TernaryMatch nested_prefix(Rng& rng) {
  static constexpr uint32_t kLengths[] = {0, 4, 8, 12, 16, 18, 20, 22, 24, 26, 28, 30, 32};
  const uint32_t len = kLengths[rng.next_below(std::size(kLengths))];
  const uint32_t dst = (0x0a000000u + (rng.next_below(3) << 24)) |
                       (rng.next_below(4) << 16) | (rng.next_below(4) << 8) |
                       static_cast<uint32_t>(rng.next_below(4));
  TernaryMatch m;
  m.set_prefix(FieldId::kDstIp, dst, len);
  return m;
}

/// Matches drawn from classbench monitor and firewall tables.
struct ClassbenchMatches {
  std::vector<TernaryMatch> pool;
  explicit ClassbenchMatches(uint64_t seed) {
    Rng rng(seed);
    for (const Rule& r : classbench::generate_monitor(300, rng)) pool.push_back(r.match);
    for (const Rule& r : classbench::generate_firewall(300, rng)) pool.push_back(r.match);
  }
  TernaryMatch operator()(Rng& rng) const { return pool[rng.next_below(pool.size())]; }
};

PackedKey noisy_key(const PackedMatch& m, Rng& rng) {
  return {m.value[0] | (rng.next_u64() & ~m.mask[0]), m.value[1] | (rng.next_u64() & ~m.mask[1])};
}

bool covers(const PackedMatch& m, const PackedKey& key) {
  return (key[0] & m.mask[0]) == m.value[0] && (key[1] & m.mask[1]) == m.value[1];
}

/// The live entries of a TupleSpace, kept beside it as the oracle.
struct Oracle {
  struct Live {
    PackedMatch match;
    Rank rank = 0;
  };
  std::map<Handle, Live> live;

  Handle find(const PackedKey& key) const {
    Handle best = TupleSpace::kNone;
    Rank best_rank = 0;
    for (const auto& [h, e] : live) {
      if (covers(e.match, key) && (best == TupleSpace::kNone || e.rank > best_rank)) {
        best = h;
        best_rank = e.rank;
      }
    }
    return best;
  }
  size_t masks() const {
    std::set<PackedKey> out;
    for (const auto& [h, e] : live) out.insert(e.match.mask);
    return out.size();
  }
};

/// find_batch over `keys`, cut into slices of 0, 1, 15, 16 and 37 keys (a
/// full group, a partial one, and two groups and a remainder), answers as
/// find() does key by key, and find_batch_counted counts the probes
/// find_counted does.
::testing::AssertionResult batch_matches_find(TupleSpace& ts, const std::vector<PackedKey>& keys) {
  static constexpr size_t kSizes[] = {0, 1, 15, 16, 37};
  const auto slices = [&](auto find_slice) {
    std::vector<Handle> out(keys.size(), 0xdead);
    for (size_t at = 0, s = 0; at < keys.size(); ++s) {
      const size_t n = std::min(kSizes[s % std::size(kSizes)], keys.size() - at);
      find_slice(std::span<const PackedKey>(keys.data() + at, n), std::span<Handle>(out.data() + at, n));
      at += n;
    }
    return out;
  };
  ts.find_batch({}, {});
  const uint64_t before = ts.stats().tuples_probed;
  std::vector<Handle> want;
  for (const PackedKey& key : keys) want.push_back(ts.find_counted(key));
  const uint64_t probes = ts.stats().tuples_probed - before;
  const std::vector<Handle> got = slices([&](auto in, auto out) { ts.find_batch(in, out); });
  for (size_t j = 0; j < keys.size(); ++j) {
    if (got[j] != want[j]) {
      return ::testing::AssertionFailure() << "key " << j << ": find_batch " << got[j] << ", find "
                                           << want[j];
    }
  }
  const uint64_t lookups = ts.stats().lookups;
  const uint64_t batch_before = ts.stats().tuples_probed;
  if (slices([&](auto in, auto out) { ts.find_batch_counted(in, out); }) != want) {
    return ::testing::AssertionFailure() << "find_batch_counted differs from find";
  }
  const uint64_t batch_probes = ts.stats().tuples_probed - batch_before;
  if (batch_probes != probes || ts.stats().lookups - lookups != keys.size()) {
    return ::testing::AssertionFailure() << "find_batch probed " << batch_probes << " times, find "
                                         << probes;
  }
  return ::testing::AssertionSuccess();
}

/// Every chain strictly nested, one tuple per live mask, no lookup over
/// more probes than the search trees are deep, and the batched lookup
/// answering as the per-key one.
::testing::AssertionResult invariants_hold(TupleSpace& ts, const Oracle& oracle, Rng& rng,
                                           size_t random_keys) {
  if (ts.tuple_count() != oracle.masks()) {
    return ::testing::AssertionFailure()
           << "tuple_count " << ts.tuple_count() << ", live masks " << oracle.masks();
  }
  size_t depth_sum = 0;
  for (const TupleSpace::ChainView& c : ts.chains()) {
    depth_sum += c.depth;
    if (c.masks.empty() || c.depth == 0 || c.depth > c.masks.size()) {
      return ::testing::AssertionFailure() << "chain of " << c.masks.size() << " levels, depth "
                                           << c.depth;
    }
    for (size_t i = 1; i < c.masks.size(); ++i) {
      const PackedKey& a = c.masks[i - 1];
      const PackedKey& b = c.masks[i];
      const bool nested = (a[0] & ~b[0]) == 0 && (a[1] & ~b[1]) == 0 && a != b;
      if (!nested) return ::testing::AssertionFailure() << "chain level " << i << " not nested";
    }
  }
  std::vector<PackedKey> keys;
  for (const auto& [h, e] : oracle.live) keys.push_back(noisy_key(e.match, rng));
  for (size_t i = 0; i < random_keys; ++i) keys.push_back({rng.next_u64(), rng.next_u64()});
  if (auto batch = batch_matches_find(ts, keys); !batch) return batch;
  for (const PackedKey& key : keys) {
    const Handle want = oracle.find(key);
    const uint64_t before = ts.stats().tuples_probed;
    const Handle got = ts.find_counted(key);
    const uint64_t probes = ts.stats().tuples_probed - before;
    if (got != want || ts.find(key) != got) {
      return ::testing::AssertionFailure() << "find " << got << ", brute force " << want;
    }
    if (probes > depth_sum) {
      return ::testing::AssertionFailure() << probes << " probes over trees " << depth_sum
                                           << " deep in all";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Ranks for the stream: unique, and with `tie_bits` 32 a few shared
/// priorities above a unique low word, as SoftTable ranks them.
struct Ranks {
  unsigned tie_bits = 0;
  uint64_t next = 0;
  Rank operator()(Rng& rng) {
    ++next;
    if (tie_bits == 0) return (rng.next_u64() & ~uint64_t{0xffff}) | (next & 0xffff);
    return (rng.next_below(3) << 32) | (uint64_t{0xffffffff} - next);
  }
};

/// Random insert/erase churn over `draw`'s matches; erased handles come
/// back later with fresh ranks. The first round's checks search the index,
/// so the next insert regroups it into nested chains; it then swings
/// between ~70 and ~250 entries.
template <typename Draw>
void churn(Draw draw, unsigned tie_bits, uint64_t seed) {
  Rng rng(seed);
  TupleSpace ts(tie_bits);
  Oracle oracle;
  Ranks ranks{tie_bits};
  std::vector<Handle> free_handles;
  for (Handle h = 0; h < 400; ++h) free_handles.push_back(h);
  bool nested = false;
  for (int round = 0; round < 40; ++round) {
    // Grow, then shrink, so levels (internal ones too) appear and vanish.
    const bool grow = round < 5 || (round % 10 >= 5 && round % 10 < 8);
    for (int op = 0; op < 30; ++op) {
      const bool add = !free_handles.empty() && (oracle.live.empty() || rng.next_bool(grow ? 0.8 : 0.3));
      if (add) {
        const size_t i = rng.next_below(free_handles.size());
        const Handle h = free_handles[i];
        free_handles[i] = free_handles.back();
        free_handles.pop_back();
        const PackedMatch m = tcam::pack_match(draw(rng));
        const Rank r = ranks(rng);
        ts.insert(h, m, r);
        oracle.live[h] = {m, r};
      } else {
        auto it = oracle.live.begin();
        std::advance(it, rng.next_below(oracle.live.size()));
        ts.erase(it->first, it->second.match);
        free_handles.push_back(it->first);
        oracle.live.erase(it);
      }
    }
    ASSERT_TRUE(invariants_hold(ts, oracle, rng, 20)) << "seed " << seed << " round " << round;
    nested |= ts.chain_count() < ts.tuple_count();
  }
  EXPECT_TRUE(nested) << "seed " << seed << ": no two masks ever shared a chain";
  // Drain: every chain and level must go.
  while (!oracle.live.empty()) {
    ts.erase(oracle.live.begin()->first, oracle.live.begin()->second.match);
    oracle.live.erase(oracle.live.begin());
    ASSERT_TRUE(invariants_hold(ts, oracle, rng, 2)) << "seed " << seed << " draining";
  }
  EXPECT_EQ(ts.chain_count(), 0u);
  EXPECT_EQ(ts.marker_slots(), 0u);
}

TEST(TupleSpaceChurn, NestedPrefixesFormOneChain) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    ASSERT_NO_FATAL_FAILURE(churn(&nested_prefix, 0, seed));
  }
}

TEST(TupleSpaceChurn, ClassbenchMasksFormManyShortChains) {
  const ClassbenchMatches matches(11);
  for (const uint64_t seed : {5u, 6u, 7u}) {
    ASSERT_NO_FATAL_FAILURE(churn(matches, 0, seed));
  }
}

TEST(TupleSpaceChurn, EqualPrioritiesUnderTieBits) {
  const ClassbenchMatches matches(12);
  for (const uint64_t seed : {8u, 9u}) {
    ASSERT_NO_FATAL_FAILURE(churn(&nested_prefix, 32, seed));
    ASSERT_NO_FATAL_FAILURE(churn(matches, 32, seed));
  }
}

TEST(TupleSpaceChurn, NestedPrefixesShareOneChainOnceTheIndexIsSearched) {
  // Every mask is a chain of its own until the index has been searched;
  // the next insert regroups the nested prefixes into one chain.
  Rng rng(21);
  TupleSpace ts;
  for (Handle h = 0; h < 150; ++h) ts.insert(h, tcam::pack_match(nested_prefix(rng)), h);
  EXPECT_EQ(ts.chain_count(), ts.tuple_count());
  EXPECT_EQ(ts.marker_slots(), 0u);
  EXPECT_EQ(ts.stats().chain_rebuilds, 0u);
  ts.find(PackedKey{0x0a000000, 0});
  EXPECT_EQ(ts.chain_count(), ts.tuple_count());  // a search alone changes nothing
  for (Handle h = 150; h < 200; ++h) ts.insert(h, tcam::pack_match(nested_prefix(rng)), h);
  ASSERT_EQ(ts.chain_count(), 1u);
  EXPECT_EQ(ts.chains()[0].masks.size(), ts.tuple_count());
  EXPECT_GT(ts.marker_slots(), 0u);
  EXPECT_GT(ts.stats().propagation_visits, 0u);
  EXPECT_GT(ts.stats().chain_rebuilds, 0u);
}

// --- batched lookup -----------------------------------------------------------

TEST(TupleSpaceBatch, FlatIndexNeverSearchedAnswersLikeFind) {
  // Classbench masks inserted one by one and never searched: every mask is
  // a one-level chain, so a batch walks many chains with early exits.
  const ClassbenchMatches matches(15);
  for (const unsigned tie_bits : {0u, 32u}) {
    Rng rng(51 + tie_bits);
    Ranks ranks{tie_bits};
    TupleSpace ts(tie_bits);
    Oracle oracle;
    for (Handle h = 0; h < 300; ++h) {
      const PackedMatch m = tcam::pack_match(matches(rng));
      const Rank r = ranks(rng);
      ts.insert(h, m, r);
      oracle.live[h] = {m, r};
    }
    ASSERT_EQ(ts.chain_count(), ts.tuple_count());
    ASSERT_GT(ts.chain_count(), 20u);
    std::vector<PackedKey> keys;
    for (const auto& [h, e] : oracle.live) keys.push_back(noisy_key(e.match, rng));
    for (int i = 0; i < 50; ++i) keys.push_back({rng.next_u64(), rng.next_u64()});
    std::vector<Handle> got(keys.size());
    ts.find_batch(keys, got);  // the index's first search
    for (size_t j = 0; j < keys.size(); ++j) {
      ASSERT_EQ(got[j], oracle.find(keys[j])) << "tie_bits " << tie_bits << " key " << j;
    }
    ASSERT_EQ(ts.chain_count(), ts.tuple_count());  // a search alone changes nothing
    ASSERT_TRUE(batch_matches_find(ts, keys)) << "tie_bits " << tie_bits;
  }
}

TEST(TupleSpaceBatch, ABatchAloneMarksTheIndexSearched) {
  // As after find(): the next insert regroups the nested prefixes.
  Rng rng(22);
  TupleSpace ts;
  for (Handle h = 0; h < 150; ++h) ts.insert(h, tcam::pack_match(nested_prefix(rng)), h);
  ASSERT_GT(ts.chain_count(), 1u);
  const PackedKey key{0x0a000000, 0};
  Handle out = 0;
  ts.find_batch({&key, 1}, {&out, 1});
  EXPECT_EQ(out, ts.find(key));
  ts.insert(150, tcam::pack_match(nested_prefix(rng)), 150);
  EXPECT_EQ(ts.chain_count(), 1u);
}

TEST(TupleSpaceBatch, ChainedTiedAndTcamIndexesUnderChurn) {
  // Several chains (nested prefixes beside classbench masks), SoftTable-style
  // ties under tie_bits 32, and TCAM ranks (rank = handle = address), each
  // checked after every round of inserts and erases.
  const ClassbenchMatches matches(16);
  const auto mixed = [&matches](Rng& rng) {
    return rng.next_bool(0.5) ? nested_prefix(rng) : matches(rng);
  };
  for (const unsigned tie_bits : {0u, 32u}) {
    Rng rng(61 + tie_bits);
    Ranks ranks{tie_bits};
    TupleSpace ts(tie_bits);
    Oracle oracle;
    std::vector<Handle> free_handles;
    for (Handle h = 0; h < 300; ++h) free_handles.push_back(h);
    bool chained = false;
    for (int round = 0; round < 12; ++round) {
      for (int op = 0; op < 25; ++op) {
        if (!free_handles.empty() && (oracle.live.empty() || rng.next_bool(0.65))) {
          const Handle h = free_handles.back();
          free_handles.pop_back();
          const PackedMatch m = tcam::pack_match(mixed(rng));
          const Rank r = ranks(rng);
          ts.insert(h, m, r);
          oracle.live[h] = {m, r};
        } else {
          auto it = oracle.live.begin();
          std::advance(it, rng.next_below(oracle.live.size()));
          ts.erase(it->first, it->second.match);
          free_handles.push_back(it->first);
          oracle.live.erase(it);
        }
      }
      ASSERT_TRUE(invariants_hold(ts, oracle, rng, 40)) << "tie_bits " << tie_bits << " round "
                                                       << round;
      chained |= ts.chain_count() > 1 && ts.chain_count() < ts.tuple_count();
    }
    EXPECT_TRUE(chained) << "tie_bits " << tie_bits;
  }
  // A TCAM's index, written and searched through the Tcam.
  Rng rng(71);
  Tcam tcam(256);
  for (int round = 0; round < 10; ++round) {
    for (int op = 0; op < 40; ++op) {
      const size_t addr = rng.next_below(tcam.capacity());
      if (tcam.is_free(addr)) {
        tcam.write(addr, Rule::make(mixed(rng), ActionList{Action::forward(1)}, 0));
      } else if (rng.next_bool(0.4)) {
        tcam.erase(addr);
      }
    }
    Oracle oracle;
    for (size_t a = 0; a < tcam.capacity(); ++a) {
      if (const auto id = tcam.at(a)) {
        oracle.live[static_cast<Handle>(a)] = {tcam::pack_match(tcam.rule(*id).match), a};
      }
    }
    TupleSpace index = tcam.index();
    ASSERT_TRUE(invariants_hold(index, oracle, rng, 40)) << "tcam round " << round;
    tcam.lookup(flowspace::Packet{});  // searched: the next write regroups
  }
}

// --- bulk build ---------------------------------------------------------------

TEST(TupleSpaceAssign, BulkBuildAnswersLikeIncrementalInserts) {
  const ClassbenchMatches matches(13);
  for (const unsigned tie_bits : {0u, 32u}) {
    Rng rng(31 + tie_bits);
    Ranks ranks{tie_bits};
    std::vector<TupleSpace::Entry> entries;
    Oracle oracle;
    for (Handle h = 0; h < 600; ++h) {
      const PackedMatch m =
          tcam::pack_match(h % 2 == 0 ? nested_prefix(rng) : matches(rng));
      entries.push_back({h, m, ranks(rng)});
      oracle.live[h] = {m, entries.back().rank};
    }
    TupleSpace bulk(tie_bits);
    bulk.assign(entries);
    EXPECT_EQ(bulk.stats().propagation_visits, 0u);
    ASSERT_TRUE(invariants_hold(bulk, oracle, rng, 200)) << "tie_bits " << tie_bits;
    EXPECT_THROW(bulk.assign(entries), std::logic_error);

    // The bulk-built index stays exact under churn.
    for (Handle h = 0; h < 600; h += 3) {
      bulk.erase(h, oracle.live[h].match);
      oracle.live.erase(h);
    }
    for (Handle h = 600; h < 700; ++h) {
      const PackedMatch m = tcam::pack_match(nested_prefix(rng));
      const Rank r = ranks(rng);
      bulk.insert(h, m, r);
      oracle.live[h] = {m, r};
    }
    ASSERT_TRUE(invariants_hold(bulk, oracle, rng, 200)) << "tie_bits " << tie_bits;
  }
}

TEST(TupleSpaceAssign, ChainIsRebuiltWhenALevelJoinsOrLeaves) {
  // /8 ⊂ /16 ⊂ /24 form one chain. Its weighted tree is rebuilt when the
  // /16 level's last entry goes and when a new /20 level joins, and only
  // then: writes within a level keep the tree.
  const auto prefix = [](uint32_t dst, uint32_t len) {
    TernaryMatch m;
    m.set_prefix(FieldId::kDstIp, dst, len);
    return tcam::pack_match(m);
  };
  std::vector<TupleSpace::Entry> entries = {{0, prefix(0x0a000000, 8), 1},
                                            {6, prefix(0x0a010203, 24), 60}};
  for (Handle h = 1; h <= 5; ++h) entries.push_back({h, prefix(0x0a000000 | (h << 16), 16), 10 * h});
  TupleSpace ts;
  ts.assign(entries);
  ASSERT_EQ(ts.chain_count(), 1u);
  EXPECT_EQ(ts.chains()[0].masks.size(), 3u);
  EXPECT_EQ(ts.chains()[0].depth, 2u);  // the /16 level, with five entries, is the root
  EXPECT_EQ(ts.stats().chain_rebuilds, 0u);
  Oracle oracle;
  for (const auto& e : entries) oracle.live[e.handle] = {e.match, e.rank};
  Rng rng(3);
  ASSERT_TRUE(invariants_hold(ts, oracle, rng, 50));

  for (Handle h = 1; h <= 5; ++h) {
    ts.erase(h, oracle.live[h].match);
    oracle.live.erase(h);
    EXPECT_EQ(ts.stats().chain_rebuilds, h == 5 ? 1u : 0u) << "after erasing " << h;
  }
  EXPECT_EQ(ts.tuple_count(), 2u);
  EXPECT_EQ(ts.chains()[0].masks.size(), 2u);
  ASSERT_TRUE(invariants_hold(ts, oracle, rng, 50));
  EXPECT_EQ(ts.find(PackedKey{0x0a010203, 0}), 6u);
  EXPECT_EQ(ts.find(PackedKey{0x0a010304, 0}), 0u);

  const PackedMatch mid = prefix(0x0a010000, 20);
  ts.insert(7, mid, 30);
  oracle.live[7] = {mid, 30};
  EXPECT_EQ(ts.stats().chain_rebuilds, 2u);
  ASSERT_EQ(ts.chain_count(), 1u);
  EXPECT_EQ(ts.chains()[0].masks.size(), 3u);
  ASSERT_TRUE(invariants_hold(ts, oracle, rng, 50));
  for (Handle h = 8; h < 48; ++h) {
    const PackedMatch host = prefix(0x0a020000 | (h << 8), 24);
    ts.insert(h, host, 100 + h);
    oracle.live[h] = {host, 100 + h};
  }
  EXPECT_EQ(ts.stats().chain_rebuilds, 2u);
  ASSERT_TRUE(invariants_hold(ts, oracle, rng, 50));
}

// --- Tcam streams ---------------------------------------------------------------

/// Write/move/erase/take streams on a Tcam over `draw`'s matches; after
/// each round its lookup must be the highest-address covering entry.
template <typename Draw>
void tcam_stream(Draw draw, uint64_t seed) {
  Rng rng(seed);
  Tcam tcam(320);
  bool nested = false;
  for (size_t addr = 0; addr < 160; ++addr) {
    tcam.write(rng.next_below(2) + 2 * addr, Rule::make(draw(rng), ActionList{Action::forward(1)}, 0));
  }
  for (int round = 0; round < 30; ++round) {
    for (int op = 0; op < 40; ++op) {
      const size_t addr = rng.next_below(tcam.capacity());
      const size_t other = rng.next_below(tcam.capacity());
      switch (rng.next_below(4)) {
        case 0:
        case 1:
          if (tcam.is_free(addr) && (round % 10 < 6 || rng.next_bool(0.3))) {
            tcam.write(addr, Rule::make(draw(rng), ActionList{Action::forward(1)}, 0));
          }
          break;
        case 2:
          if (!tcam.is_free(addr) && tcam.is_free(other)) tcam.move(addr, other);
          break;
        default:
          if (rng.next_bool(0.5)) {
            tcam.erase(addr);
          } else if (!tcam.is_free(addr)) {
            tcam.take(addr);
          }
      }
    }
    Oracle oracle;
    for (size_t a = 0; a < tcam.capacity(); ++a) {
      if (const auto id = tcam.at(a)) {
        oracle.live[static_cast<Handle>(a)] = {tcam::pack_match(tcam.rule(*id).match), a};
      }
    }
    // The Tcam's own index, through a copy that may count probes.
    TupleSpace index = tcam.index();
    ASSERT_TRUE(invariants_hold(index, oracle, rng, 20)) << "seed " << seed << " round " << round;
    for (const auto& [h, e] : oracle.live) {
      const flowspace::Packet p = tcam.rule(*tcam.at(h)).match.sample_packet();
      const Rule* got = tcam.lookup(p);
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(tcam.address_of(got->id), oracle.find(tcam::pack_fields(p.fields)));
    }
    nested |= tcam.index().chain_count() < tcam.tuple_count();
  }
  EXPECT_TRUE(nested) << "seed " << seed << ": no two masks ever shared a chain";
}

TEST(TupleSpaceTcam, NestedPrefixStreams) {
  for (const uint64_t seed : {41u, 42u, 43u}) ASSERT_NO_FATAL_FAILURE(tcam_stream(&nested_prefix, seed));
}

TEST(TupleSpaceTcam, ClassbenchStreams) {
  const ClassbenchMatches matches(14);
  for (const uint64_t seed : {44u, 45u, 46u}) ASSERT_NO_FATAL_FAILURE(tcam_stream(matches, seed));
}

}  // namespace
}  // namespace ruletris
