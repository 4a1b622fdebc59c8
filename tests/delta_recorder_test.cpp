// Recorded epoch deltas against their differential oracle.
//
// frozen::seal_recorded derives each epoch's PolicyDelta from the churn the
// composed root recorded (ComposedNode::take_recorded); frozen::diff derives
// it from two full captures. On every epoch of every stream below the two must
// be equal and encode to the same bytes: the bursty fleet task (insert and
// teardown bursts) over 50 seeds, classic insert/delete/modify churn,
// parallel/sequential/priority compositions churned on both sides, nested
// trees, and the warm-boot bench's monitor ∥ router(128) swap stream.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/ruletris_compiler.h"
#include "frozen/delta.h"
#include "frozen/frozen.h"
#include "runtime/workload.h"
#include "test_util.h"
#include "util/hash.h"

namespace ruletris {
namespace {

using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using frozen::PolicyDelta;
using frozen::PolicyImage;
using util::Rng;

/// Tracks the oracle side: the previous epoch's capture.
class Oracle {
 public:
  /// Captures the base epoch and starts the root's recording.
  Oracle(RuleTrisCompiler& frontend, uint64_t epoch)
      : frontend_(frontend), prev_(frozen::capture_policy(frontend, epoch)) {
    frozen::start_recording(frontend);
  }

  /// Seals `epoch` both ways and compares; returns the recorded delta.
  PolicyDelta check(uint64_t epoch, const std::string& where) {
    const PolicyDelta recorded =
        frozen::seal_recorded(frontend_, prev_.epoch, epoch);
    PolicyImage now = frozen::capture_policy(frontend_, epoch);
    const PolicyDelta diffed = frozen::diff(prev_, now);
    EXPECT_TRUE(recorded == diffed) << where << " epoch " << epoch;
    EXPECT_EQ(frozen::encode_delta(recorded), frozen::encode_delta(diffed))
        << where << " epoch " << epoch;
    prev_ = std::move(now);
    return recorded;
  }

 private:
  RuleTrisCompiler& frontend_;
  PolicyImage prev_;
};

/// The sharded fleet's default per-switch task: monitor(24) ∥ router(16),
/// bursty churn on the monitor leaf (insert bursts and LIFO teardowns).
runtime::ChurnEngine bursty_engine(uint64_t seed, size_t updates) {
  Rng rng(util::hash_pair(seed, 1));
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(24, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(16, rng)});
  runtime::ChurnSpec churn;
  churn.leaf = "mon";
  churn.updates = updates;
  churn.seed = util::hash_pair(seed ^ 0x9e3779b97f4a7c15ULL, 1);
  churn.burst = runtime::BurstSpec{.enabled = true};
  return runtime::ChurnEngine(
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")),
      std::move(tables), churn);
}

/// Steps `engine` to the end, checking every epoch after the first.
/// Returns how many epochs netted to entry removals only (teardowns).
size_t run_engine(runtime::ChurnEngine& engine, const std::string& where) {
  engine.step();
  Oracle oracle(engine.frontend(), engine.produced());
  size_t teardowns = 0;
  while (!engine.done()) {
    engine.step();
    const PolicyDelta d = oracle.check(engine.produced(), where);
    const frozen::TableDelta& t = d.tables.at(0);
    if (!t.removed_entries.empty() && t.added_entries.empty()) ++teardowns;
  }
  return teardowns;
}

TEST(RecordedDeltaTest, BurstyFleetTaskMatchesDiffAcrossSeeds) {
  size_t teardowns = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    runtime::ChurnEngine engine = bursty_engine(seed, 24);
    teardowns += run_engine(engine, "bursty seed " + std::to_string(seed));
  }
  EXPECT_GT(teardowns, 0u) << "no teardown burst exercised";
}

TEST(RecordedDeltaTest, ClassicInsertDeleteModifyChurnMatchesDiff) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::map<std::string, FlowTable> tables;
    tables.emplace("mon", FlowTable{classbench::generate_monitor(30, rng)});
    tables.emplace("rtr", FlowTable{classbench::generate_router(12, rng)});
    runtime::ChurnSpec churn;
    churn.leaf = "mon";
    churn.updates = 60;
    churn.seed = seed;
    runtime::ChurnEngine engine(
        PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")),
        std::move(tables), churn);
    run_engine(engine, "classic seed " + std::to_string(seed));
  }
}

/// Header rewrites on some rules so the sequential operator's rewrite path
/// runs (mirrors the composition-compile tests).
ActionList rewrite_actions(Rng& rng) {
  if (rng.next_bool(0.3)) {
    return ActionList{Action::set_field(FieldId::kDstIp,
                                        static_cast<uint32_t>(rng.next_below(4)) << 30),
                      Action::forward(1 + static_cast<uint32_t>(rng.next_below(3)))};
  }
  return testutil::random_actions(rng);
}

Rule random_rule(Rng& rng) {
  return Rule::make(testutil::random_match(rng), rewrite_actions(rng),
                    static_cast<int32_t>(rng.next_below(1000)));
}

/// Random multi-op epochs churning every leaf of `spec`: inserts, removals
/// and modifies, several per epoch so in-epoch cancellation happens too
/// (an inserted rule may be removed before the epoch ends).
void churn_policy(const PolicySpec& spec, size_t rules_per_leaf, uint64_t seed,
                  const std::string& where) {
  Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  std::map<std::string, std::vector<RuleId>> live;
  for (const std::string& leaf : spec.leaf_names()) {
    std::vector<Rule> rules;
    for (size_t i = 0; i < rules_per_leaf; ++i) rules.push_back(random_rule(rng));
    for (const Rule& r : rules) live[leaf].push_back(r.id);
    tables.emplace(leaf, FlowTable{rules});
  }
  RuleTrisCompiler frontend(spec, std::move(tables));
  Oracle oracle(frontend, 1);
  const std::vector<std::string> leaves = spec.leaf_names();
  for (uint64_t epoch = 2; epoch <= 14; ++epoch) {
    const size_t ops = 1 + rng.next_below(5);
    for (size_t k = 0; k < ops; ++k) {
      const std::string& leaf = leaves[rng.next_below(leaves.size())];
      std::vector<RuleId>& ids = live[leaf];
      const double op = rng.next_double();
      if (op < 0.4 || ids.size() < 3) {
        const Rule fresh = random_rule(rng);
        frontend.insert(leaf, fresh);
        ids.push_back(fresh.id);
      } else if (op < 0.7) {
        // Newest first half the time: undoes an insert from this epoch.
        const size_t victim = rng.next_bool(0.5) ? ids.size() - 1
                                                 : rng.next_below(ids.size());
        frontend.remove(leaf, ids[victim]);
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const size_t victim = rng.next_below(ids.size());
        const Rule fresh = random_rule(rng);
        frontend.modify(leaf, ids[victim], fresh);
        ids[victim] = fresh.id;
      }
    }
    oracle.check(epoch, where + " seed " + std::to_string(seed));
  }
}

TEST(RecordedDeltaTest, EveryOperatorAndNestedTreesMatchDiff) {
  const PolicySpec a = PolicySpec::leaf("a");
  const PolicySpec b = PolicySpec::leaf("b");
  const PolicySpec c = PolicySpec::leaf("c");
  // Nested trees get smaller leaves: a parallel child feeding a sequential
  // parent multiplies the member entries.
  const struct {
    const char* name;
    PolicySpec spec;
    size_t rules_per_leaf;
  } cases[] = {
      {"parallel", PolicySpec::parallel(a, b), 14},
      {"sequential", PolicySpec::sequential(a, b), 14},
      {"priority", PolicySpec::priority(a, b), 14},
      {"(a + b) > c", PolicySpec::sequential(PolicySpec::parallel(a, b), c), 6},
      {"a $ (b > c)", PolicySpec::priority(a, PolicySpec::sequential(b, c)), 8},
  };
  for (const auto& tc : cases) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      churn_policy(tc.spec, tc.rules_per_leaf, seed, tc.name);
    }
  }
}

TEST(RecordedDeltaTest, WarmBootSwapStreamMatchesDiff) {
  // bench/warm_boot's delta section at smoke size: monitor(500) ∥
  // router(128), each epoch a run of remove/insert swaps on the monitor.
  Rng rng(0xde17a);
  const std::vector<Rule> right = classbench::generate_router(128, rng);
  const std::vector<Rule> left = classbench::generate_monitor(500, rng);
  std::map<std::string, FlowTable> tables;
  tables.emplace("left", FlowTable{left});
  tables.emplace("right", FlowTable{right});
  RuleTrisCompiler frontend(
      PolicySpec::parallel(PolicySpec::leaf("left"), PolicySpec::leaf("right")),
      std::move(tables));
  Oracle oracle(frontend, 1);
  std::vector<RuleId> live;
  for (const Rule& r : left) live.push_back(r.id);
  for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
    for (int k = 0; k < 8; ++k) {
      const size_t victim = static_cast<size_t>(rng.next_below(live.size()));
      frontend.remove("left", live[victim]);
      const Rule fresh = classbench::generate_monitor(1, rng).front();
      live[victim] = fresh.id;
      frontend.insert("left", fresh);
    }
    oracle.check(epoch, "warm-boot swaps");
  }
}

TEST(RecordedDeltaTest, InsertThenRemoveWithinAnEpochCancels) {
  Rng rng(5);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(20, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(8, rng)});
  RuleTrisCompiler frontend(
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")),
      std::move(tables));
  Oracle oracle(frontend, 1);
  const Rule fresh = classbench::generate_monitor(1, rng).front();
  frontend.insert("mon", fresh);
  frontend.remove("mon", fresh.id);
  const PolicyDelta d = oracle.check(2, "cancel");
  EXPECT_TRUE(d.tables.at(0).empty());
}

TEST(RecordedDeltaTest, ReorderedVisibleOrderThrows) {
  // Survivors 1, 2, 3 (4 removed, 9 joined): any permutation of the
  // survivors breaks the surviving-order invariant, as it does in diff().
  const std::vector<RuleId> from = {1, 2, 3, 4};
  const auto edit = frozen::order_edit(from, {9, 1, 2, 3}, {4}, {9});
  ASSERT_EQ(edit.size(), 1u);
  EXPECT_EQ(edit[0], (std::pair<RuleId, uint64_t>{9, 0}));
  EXPECT_THROW(frozen::order_edit(from, {9, 2, 1, 3}, {4}, {9}), std::runtime_error);
  EXPECT_THROW(frozen::order_edit(from, {1, 3, 2, 9}, {4}, {9}), std::runtime_error);
  // Churn that disagrees with the order: a missed removal, a missed join.
  EXPECT_THROW(frozen::order_edit(from, {1, 2, 3}, {}, {}), std::runtime_error);
  EXPECT_THROW(frozen::order_edit(from, {1, 2, 3, 9}, {4}, {}), std::runtime_error);
}

TEST(RecordedDeltaTest, SealWithoutRecordingThrows) {
  Rng rng(6);
  std::map<std::string, FlowTable> tables;
  tables.emplace("mon", FlowTable{classbench::generate_monitor(10, rng)});
  tables.emplace("rtr", FlowTable{classbench::generate_router(4, rng)});
  RuleTrisCompiler frontend(
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")),
      std::move(tables));
  EXPECT_THROW(frozen::seal_recorded(frontend, 1, 2), std::runtime_error);
  frozen::start_recording(frontend);
  auto& root = dynamic_cast<compiler::ComposedNode&>(frontend.root());
  root.full_rebuild();  // not churn: recording stops
  EXPECT_THROW(frozen::seal_recorded(frontend, 1, 2), std::runtime_error);
}

}  // namespace
}  // namespace ruletris
