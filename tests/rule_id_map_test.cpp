// util::RuleIdMap, the flat id-keyed map under every per-rule index:
// growth, backward-shift erase and for_each with a value type that owns
// memory, checked against std::unordered_map under random churn.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/rule_id_map.h"

namespace ruletris {
namespace {

using util::RuleIdMap;

/// A value that owns heap memory, so a copied-instead-of-moved or a
/// never-destroyed value shows under ASan, and a stale one as a mismatch.
std::vector<std::string> value_for(uint64_t id) {
  return {std::to_string(id), std::string(40, static_cast<char>('a' + id % 26))};
}

TEST(RuleIdMap, InsertFindAtAndContains) {
  RuleIdMap<std::vector<std::string>> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.contains(7));
  EXPECT_THROW((void)map.at(7), std::out_of_range);

  EXPECT_TRUE(map.insert(7, value_for(7)));
  EXPECT_FALSE(map.insert(7, value_for(8)));  // present: unchanged
  EXPECT_EQ(map.at(7), value_for(7));
  EXPECT_TRUE(map.contains(7));
  EXPECT_EQ(map.size(), 1u);

  map[9].push_back("x");  // operator[] default-constructs an absent id
  EXPECT_EQ(map.at(9), std::vector<std::string>{"x"});
  EXPECT_THROW((void)map.at(10), std::out_of_range);
  EXPECT_THROW(map.insert(0, {}), std::invalid_argument);  // 0 marks empty slots
  EXPECT_FALSE(map.contains(0));
}

TEST(RuleIdMap, MatchesUnorderedMapUnderChurnThroughGrowth) {
  util::Rng rng(5);
  RuleIdMap<std::vector<std::string>> map;
  std::unordered_map<uint64_t, std::vector<std::string>> ref;
  // Clustered ids (consecutive runs, as the global counter hands them out)
  // collide in long probe chains, so erases exercise the backward shift.
  for (int step = 0; step < 20000; ++step) {
    const uint64_t id = 1 + rng.next_below(step < 10000 ? 3000 : 300);
    if (rng.next_bool(0.6)) {
      const bool inserted = map.insert(id, value_for(id));
      EXPECT_EQ(inserted, ref.emplace(id, value_for(id)).second);
    } else {
      EXPECT_EQ(map.erase(id), ref.erase(id) == 1);
    }
    ASSERT_EQ(map.size(), ref.size());
    if (step % 997 == 0) {
      for (const auto& [rid, v] : ref) ASSERT_EQ(map.at(rid), v) << rid;
    }
  }
  for (uint64_t id = 1; id <= 3000; ++id) {
    ASSERT_EQ(map.contains(id), ref.count(id) == 1) << id;
  }
}

TEST(RuleIdMap, ForEachVisitsEachLiveIdOnce) {
  RuleIdMap<std::vector<std::string>> map;
  for (uint64_t id = 1; id <= 500; ++id) map.insert(id, value_for(id));
  for (uint64_t id = 2; id <= 500; id += 3) map.erase(id);

  std::map<uint64_t, int> seen;
  map.for_each([&seen](uint64_t id, const std::vector<std::string>& v) {
    ++seen[id];
    EXPECT_EQ(v, value_for(id));
  });
  ASSERT_EQ(seen.size(), map.size());
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << id;
    EXPECT_NE(id % 3, 2u) << id;  // erased ids are not visited
  }
}

TEST(RuleIdMap, ClearAndReserveKeepItUsable) {
  RuleIdMap<std::vector<std::string>> map;
  map.reserve(1000);
  for (uint64_t id = 1; id <= 1000; ++id) map.insert(id, value_for(id));
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.contains(1));
  size_t visited = 0;
  map.for_each([&visited](uint64_t, const std::vector<std::string>&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  map.insert(1, value_for(1));
  EXPECT_EQ(map.at(1), value_for(1));

  RuleIdMap<std::vector<std::string>> moved(std::move(map));  // maps move too
  EXPECT_EQ(moved.at(1), value_for(1));
}

}  // namespace
}  // namespace ruletris
