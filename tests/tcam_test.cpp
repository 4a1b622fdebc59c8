// Tcam device model and the Fenwick occupancy index.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>

#include "tcam/occupancy.h"
#include "tcam/tcam.h"
#include "test_util.h"

namespace ruletris {
namespace {

using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::TernaryMatch;
using tcam::OccupancyIndex;
using tcam::Tcam;
using util::Rng;

Rule rule_with_port(uint32_t port, uint32_t out_port) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, port);
  return Rule::make(m, ActionList{Action::forward(out_port)}, 0);
}

TEST(Tcam, WriteMoveEraseLifecycle) {
  Tcam tcam(8);
  Rule r = rule_with_port(80, 1);
  tcam.write(3, r);
  EXPECT_TRUE(tcam.contains(r.id));
  EXPECT_EQ(tcam.address_of(r.id), 3u);
  EXPECT_EQ(tcam.stats().entry_writes, 1u);

  tcam.move(3, 6);
  EXPECT_EQ(tcam.address_of(r.id), 6u);
  EXPECT_TRUE(tcam.is_free(3));
  EXPECT_EQ(tcam.stats().entry_writes, 2u);
  EXPECT_EQ(tcam.stats().moves, 1u);

  tcam.erase(6);
  EXPECT_FALSE(tcam.contains(r.id));
  EXPECT_EQ(tcam.stats().erases, 1u);
  // Deletes are mask invalidations: no entry write.
  EXPECT_EQ(tcam.stats().entry_writes, 2u);
}

TEST(Tcam, HighestAddressWins) {
  Tcam tcam(4);
  Rule low = rule_with_port(80, 1);
  Rule high = rule_with_port(80, 2);
  tcam.write(0, low);
  tcam.write(3, high);
  Packet p;
  p.set(FieldId::kDstPort, 80);
  ASSERT_NE(tcam.lookup(p), nullptr);
  EXPECT_EQ(tcam.lookup(p)->id, high.id);
}

TEST(Tcam, LookupMiss) {
  Tcam tcam(4);
  tcam.write(0, rule_with_port(80, 1));
  Packet p;
  p.set(FieldId::kDstPort, 81);
  EXPECT_EQ(tcam.lookup(p), nullptr);
}

TEST(Tcam, InvalidOperationsThrow) {
  Tcam tcam(4);
  Rule r = rule_with_port(80, 1);
  tcam.write(1, r);
  EXPECT_THROW(tcam.write(1, rule_with_port(81, 1)), std::logic_error);
  EXPECT_THROW(tcam.write(2, r), std::logic_error);  // duplicate id
  EXPECT_THROW(tcam.move(0, 2), std::logic_error);   // source free
  EXPECT_THROW(tcam.move(1, 1), std::logic_error);   // target occupied
  EXPECT_THROW(tcam.at(9), std::out_of_range);
  EXPECT_THROW((Tcam{0}), std::invalid_argument);
}

TEST(Tcam, UpdateTimeModel) {
  Tcam tcam(8);
  tcam.write(0, rule_with_port(1, 1));
  tcam.move(0, 1);
  EXPECT_DOUBLE_EQ(tcam.stats().update_time_ms(), 2 * tcam::kEntryWriteMs);
}

TEST(Tcam, ModifyActionsInPlace) {
  Tcam tcam(4);
  Rule r = rule_with_port(80, 1);
  tcam.write(2, r);
  tcam.modify_actions(r.id, ActionList{Action::drop()});
  EXPECT_TRUE(tcam.rule(r.id).actions.contains(flowspace::ActionType::kDrop));
  EXPECT_EQ(tcam.stats().entry_writes, 2u);
  EXPECT_EQ(tcam.stats().moves, 0u);
}

TEST(Tcam, EntriesHighToLow) {
  Tcam tcam(4);
  Rule a = rule_with_port(1, 1);
  Rule b = rule_with_port(2, 2);
  tcam.write(0, a);
  tcam.write(3, b);
  auto entries = tcam.entries_high_to_low();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, b.id);
  EXPECT_EQ(entries[1].id, a.id);
}

TEST(Tcam, InvalidRuleIdIsRejected) {
  Tcam tcam(4);
  Rule r = rule_with_port(80, 1);
  r.id = flowspace::kInvalidRuleId;
  EXPECT_THROW(tcam.write(0, r), std::invalid_argument);
  EXPECT_EQ(tcam.occupied(), 0u);
}

// --- indexed lookup against a brute-force scan ------------------------------

/// Every field, with values drawn near 0 and near all-ones, so each field's
/// position in the packed key is exercised and the edge packets hit rules.
TernaryMatch random_wide_match(Rng& rng) {
  TernaryMatch m;
  for (FieldId f : flowspace::kAllFields) {
    if (!rng.next_bool(0.5)) continue;
    const uint32_t full = flowspace::field_full_mask(f);
    const uint32_t mask = rng.next_bool(0.5) ? full : rng.next_u32() & full;
    const uint32_t value = rng.next_bool(0.3)   ? 0u
                           : rng.next_bool(0.5) ? full
                                                : rng.next_u32();
    m.set_ternary(f, value & mask, mask);
  }
  return m;
}

/// Three fixed wide matches reused, plus the match-all: almost every entry
/// has same-match twins at other addresses.
TernaryMatch duplicate_heavy_match(Rng& rng) {
  static const std::vector<TernaryMatch> fixed = [] {
    Rng gen(99);
    return std::vector<TernaryMatch>{random_wide_match(gen), random_wide_match(gen),
                                     random_wide_match(gen)};
  }();
  const size_t i = rng.next_below(fixed.size() + 1);
  return i == fixed.size() ? TernaryMatch::wildcard() : fixed[i];
}

/// Highest-address match over the entry list, the reference semantics.
const Rule* brute_force(const std::vector<Rule>& high_to_low, const Packet& p) {
  for (const Rule& r : high_to_low) {
    if (r.match.matches(p)) return &r;
  }
  return nullptr;
}

std::vector<Packet> edge_packets(Rng& rng) {
  std::vector<Packet> out;
  out.emplace_back();  // all-zero
  Packet ones;
  ones.fields.fill(~uint32_t{0});  // all-ones, bits beyond every width set
  out.push_back(ones);
  for (FieldId f : flowspace::kAllFields) {
    ones.set(f, ~uint32_t{0});  // all-ones within widths only
  }
  out.push_back(ones);
  for (int i = 0; i < 16; ++i) {
    // Random headers with junk above each field's width: the junk must be
    // ignored exactly as TernaryMatch::matches ignores it.
    Packet p;
    for (auto& v : p.fields) v = rng.next_u32();
    out.push_back(p);
  }
  return out;
}

/// lookup() and lookup_counted() against brute force on the edge packets
/// plus a sample packet of about a fifth of the entries; `checks` counts
/// the packets compared.
::testing::AssertionResult agrees_with_brute_force(Tcam& tcam, Rng& rng, size_t& checks) {
  const std::vector<Rule> entries = tcam.entries_high_to_low();
  std::vector<Packet> packets = edge_packets(rng);
  for (const Rule& r : entries) {
    if (rng.next_bool(0.2)) packets.push_back(r.match.sample_packet());
  }
  const auto id = [](const Rule* r) { return r == nullptr ? flowspace::kInvalidRuleId : r->id; };
  for (const Packet& p : packets) {
    const Rule* want = brute_force(entries, p);
    const Rule* got = tcam.lookup(p);
    if (id(got) != id(want)) {
      return ::testing::AssertionFailure() << "lookup " << id(got) << ", brute force " << id(want);
    }
    const uint64_t before = tcam.probe_stats().tuples_probed;
    if (tcam.lookup_counted(p) != got) return ::testing::AssertionFailure() << "counted lookup differs";
    if (tcam.probe_stats().tuples_probed - before > tcam.tuple_count()) {
      return ::testing::AssertionFailure() << "more probes than tuples";
    }
    ++checks;
  }
  return ::testing::AssertionSuccess();
}

/// The highest address holding the match at `addr` and the next lower
/// address holding it too, when `addr` is occupied and the match has a twin.
std::optional<std::pair<size_t, size_t>> top_copy_and_twin(const Tcam& tcam, size_t addr) {
  const std::optional<flowspace::RuleId> id = tcam.at(addr);
  if (!id) return std::nullopt;
  const TernaryMatch& m = tcam.rule(*id).match;
  std::optional<size_t> top;
  for (size_t a = tcam.capacity(); a-- > 0;) {
    const std::optional<flowspace::RuleId> other = tcam.at(a);
    if (!other || !(tcam.rule(*other).match == m)) continue;
    if (top) return std::make_pair(*top, a);
    top = a;
  }
  return std::nullopt;
}

TEST(TcamIndexedLookup, AgreesWithBruteForceUnderRandomStreams) {
  for (const auto draw : {&random_wide_match, &duplicate_heavy_match}) {
    const bool duplicates = draw == &duplicate_heavy_match;
    for (uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      Tcam tcam(48);
      size_t checks = 0;
      size_t twin_moves = 0;
      // Lookups run inside the op observer too, so the index must be
      // current before each primitive notifies.
      ::testing::AssertionResult in_observer = ::testing::AssertionSuccess();
      tcam.set_op_observer([&](Tcam::Op, size_t) {
        if (in_observer) in_observer = agrees_with_brute_force(tcam, rng, checks);
      });
      for (int step = 0; step < 1500; ++step) {
        const size_t addr = rng.next_below(tcam.capacity());
        const size_t other = rng.next_below(tcam.capacity());
        switch (rng.next_below(5)) {
          case 0:
          case 1:
            if (tcam.is_free(addr)) {
              tcam.write(addr, Rule::make(draw(rng), ActionList{Action::forward(1)}, 0));
            }
            break;
          case 2:
            if (!tcam.is_free(addr) && tcam.is_free(other)) tcam.move(addr, other);
            break;
          case 3:
            if (rng.next_bool(0.5)) {
              tcam.erase(addr);
            } else if (!tcam.is_free(addr)) {
              tcam.take(addr);
            }
            break;
          default:
            // The top copy of a duplicated match moves below its twin (the
            // twin takes over), then leaves by erase or take.
            if (const auto pair = top_copy_and_twin(tcam, addr)) {
              size_t below = pair->second;
              while (below-- > 0 && !tcam.is_free(below)) {
              }
              if (below < pair->second) {
                tcam.move(pair->first, below);
                ASSERT_TRUE(agrees_with_brute_force(tcam, rng, checks))
                    << "seed " << seed << " step " << step << " twin move";
                if (rng.next_bool(0.5)) {
                  tcam.erase(below);
                } else {
                  tcam.take(below);
                }
                ++twin_moves;
              }
            }
            break;
        }
        ASSERT_TRUE(in_observer) << "seed " << seed << " step " << step << " in observer";
        ASSERT_TRUE(agrees_with_brute_force(tcam, rng, checks))
            << (duplicates ? "duplicates" : "wide") << " seed " << seed << " step " << step;
      }
      EXPECT_GT(checks, 1500u * 19u);
      if (duplicates) {
        EXPECT_GT(twin_moves, 50u) << "seed " << seed;
      }
    }
  }
}

TEST(TcamIndexedLookup, FreeSlotsNeverMatch) {
  // A free slot has no entry in the index, so even the all-ones packet
  // (which every field's full mask admits) finds nothing until a real entry
  // covers it, and an entry is found at any address.
  Tcam tcam(8);
  Packet ones;
  ones.fields.fill(~uint32_t{0});
  EXPECT_EQ(tcam.lookup(ones), nullptr);
  const Rule low = Rule::make(TernaryMatch::wildcard(), ActionList{Action::drop()}, 0);
  tcam.write(1, low);
  ASSERT_NE(tcam.lookup(ones), nullptr);
  EXPECT_EQ(tcam.lookup(ones)->id, low.id);
  // Freed slots (erase, take, move source) leave the index.
  tcam.move(1, 6);
  EXPECT_EQ(tcam.lookup(ones)->id, low.id);
  tcam.take(6);
  EXPECT_EQ(tcam.lookup(ones), nullptr);
}

TEST(TcamIndexedLookup, EmptiedTuplesLeaveTheChain) {
  // 48 distinct masks (dst prefix lengths 0..32, then 15 more with the
  // protocol exact too) churn in and out over several fill/drain rounds,
  // so tuples die and their slots are reused by new masks. The index must
  // hold exactly one tuple per mask some entry still carries.
  constexpr size_t kMasks = 48;
  const auto match_for = [](size_t mask, Rng& rng) {
    TernaryMatch m;
    m.set_prefix(FieldId::kDstIp, rng.next_u32(), static_cast<uint32_t>(mask % 33));
    if (mask >= 33) m.set_exact(FieldId::kIpProto, rng.next_below(4));
    return m;
  };
  Rng rng(5);
  Tcam tcam(64);
  size_t checks = 0;
  for (int round = 0; round < 6; ++round) {
    const size_t live_masks = round % 2 == 0 ? kMasks : 7;  // wide, then narrow
    for (int step = 0; step < 400; ++step) {
      const size_t addr = rng.next_below(tcam.capacity());
      if (step < 300 && rng.next_bool(0.6)) {
        if (tcam.is_free(addr)) {
          tcam.write(addr, Rule::make(match_for(rng.next_below(live_masks), rng),
                                      ActionList{Action::forward(2)}, 0));
        }
      } else {
        tcam.erase(addr);
      }
      std::set<tcam::PackedKey> masks;
      for (const Rule& r : tcam.entries_high_to_low()) {
        masks.insert(tcam::pack_match(r.match).mask);
      }
      ASSERT_EQ(tcam.tuple_count(), masks.size()) << "round " << round << " step " << step;
      ASSERT_TRUE(agrees_with_brute_force(tcam, rng, checks))
          << "round " << round << " step " << step;
    }
    for (size_t a = 0; a < tcam.capacity(); ++a) tcam.erase(a);
    ASSERT_EQ(tcam.tuple_count(), 0u) << "round " << round;
  }
  EXPECT_GT(tcam.probe_stats().lookups, 0u);
}

// --- occupancy index ---------------------------------------------------------

TEST(OccupancyIndex, CountsAndRanks) {
  OccupancyIndex occ(10);
  occ.set_occupied(2, true);
  occ.set_occupied(5, true);
  occ.set_occupied(9, true);
  EXPECT_EQ(occ.occupied_count(), 3u);
  EXPECT_EQ(occ.occupied_below(5), 1u);
  EXPECT_EQ(occ.occupied_in(2, 5), 2u);
  EXPECT_EQ(*occ.kth_occupied(0), 2u);
  EXPECT_EQ(*occ.kth_occupied(1), 5u);
  EXPECT_EQ(*occ.kth_occupied(2), 9u);
  EXPECT_FALSE(occ.kth_occupied(3).has_value());
}

TEST(OccupancyIndex, NearestFreeQueries) {
  OccupancyIndex occ(8);
  for (size_t a : {1u, 2u, 3u, 6u}) occ.set_occupied(a, true);
  EXPECT_EQ(*occ.nearest_free_at_or_above(1), 4u);
  EXPECT_EQ(*occ.nearest_free_at_or_above(4), 4u);
  EXPECT_EQ(*occ.nearest_free_at_or_above(6), 7u);
  EXPECT_EQ(*occ.nearest_free_at_or_below(6), 5u);
  EXPECT_EQ(*occ.nearest_free_at_or_below(3), 0u);
  occ.set_occupied(0, true);
  EXPECT_FALSE(occ.nearest_free_at_or_below(3).has_value());
}

TEST(OccupancyIndex, RandomizedAgainstLinearScan) {
  Rng rng(77);
  OccupancyIndex occ(64);
  std::vector<bool> shadow(64, false);
  for (int step = 0; step < 2000; ++step) {
    const size_t addr = rng.next_below(64);
    const bool value = rng.next_bool(0.5);
    occ.set_occupied(addr, value);
    shadow[addr] = value;

    const size_t probe = rng.next_below(64);
    // nearest free above
    std::optional<size_t> expect_above;
    for (size_t a = probe; a < 64; ++a) {
      if (!shadow[a]) {
        expect_above = a;
        break;
      }
    }
    EXPECT_EQ(occ.nearest_free_at_or_above(probe), expect_above);
    // nearest free below
    std::optional<size_t> expect_below;
    for (size_t a = probe + 1; a-- > 0;) {
      if (!shadow[a]) {
        expect_below = a;
        break;
      }
    }
    EXPECT_EQ(occ.nearest_free_at_or_below(probe), expect_below);
    // counts
    size_t count = 0;
    for (size_t a = 0; a < probe; ++a) count += shadow[a] ? 1 : 0;
    EXPECT_EQ(occ.occupied_below(probe), count);
  }
}

}  // namespace
}  // namespace ruletris
