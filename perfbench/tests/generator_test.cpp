// Generator hygiene for the wide_policy_churn inputs.
//
//   * no swap inserts a match-all rule, and no swap removes the match-all
//     default (generate_monitor(1).front() is exactly that default, which
//     is why the stream draws from random_monitor_rule instead);
//   * every replacement carries random_monitor_rule's counter band
//     (>= table size), so it did not come from generate_monitor;
//   * no two live monitor rules share a match, and each fresh rule overlaps
//     as many router rules as its victim;
//   * a seed gives the same tables and stream byte for byte, even after
//     unrelated id allocations; another seed gives another stream.
//
// Exits non-zero if any check failed.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "churn_stream.h"
#include "classbench/generator.h"

using namespace ruletris;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

constexpr size_t kSwaps = 3000;

std::string image(uint64_t seed) {
  const perfbench::WidePolicy policy = perfbench::make_wide_policy(seed);
  std::string out;
  for (const auto& r : policy.monitor) out += r.to_string() + "\n";
  for (const auto& r : policy.router) out += r.to_string() + "\n";
  perfbench::SwapStream stream(seed, policy);
  for (size_t i = 0; i < kSwaps; ++i) out += perfbench::to_text(stream.next());
  return out;
}

}  // namespace

int main() {
  {
    util::Rng rng(7);
    expect(classbench::generate_monitor(1, rng).front().match.is_wildcard(),
           "generate_monitor(1).front() is the match-all default");
  }

  const uint64_t seed = 11;
  const perfbench::WidePolicy policy = perfbench::make_wide_policy(seed);
  expect(policy.monitor.size() == perfbench::kWideMonitorRules, "monitor table size");
  expect(policy.router.size() == perfbench::kWideRouterRules, "router table size");

  std::unordered_set<flowspace::TernaryMatch, flowspace::TernaryMatchHash> live;
  flowspace::RuleId default_id = flowspace::kInvalidRuleId;
  for (const auto& r : policy.monitor) {
    expect(live.insert(r.match).second, "initial monitor matches are distinct");
    if (r.match.is_wildcard()) default_id = r.id;
  }
  expect(default_id != flowspace::kInvalidRuleId, "monitor table has its default");

  const auto footprint = [&](const flowspace::TernaryMatch& m) {
    size_t n = 0;
    for (const auto& r : policy.router) n += m.overlaps(r.match);
    return n;
  };
  std::unordered_map<flowspace::RuleId, flowspace::TernaryMatch> by_id;
  for (const auto& r : policy.monitor) by_id.emplace(r.id, r.match);
  perfbench::SwapStream stream(seed, policy);
  for (size_t i = 0; i < kSwaps; ++i) {
    const perfbench::Swap s = stream.next();
    expect(!s.fresh.match.is_wildcard(), "no match-all insert");
    expect(s.victim != default_id, "the default is never removed");
    const auto& acts = s.fresh.actions.actions();
    expect(acts.size() == 1 && acts[0].type == flowspace::ActionType::kCount &&
               acts[0].arg >= perfbench::kWideMonitorRules,
           "replacement comes from random_monitor_rule");
    const auto victim = by_id.find(s.victim);
    expect(victim != by_id.end(), "victim is live");
    if (victim == by_id.end()) break;
    expect(footprint(s.fresh.match) == footprint(victim->second),
           "fresh rule keeps the victim's router footprint");
    live.erase(victim->second);
    by_id.erase(victim);
    expect(live.insert(s.fresh.match).second, "no duplicate live match");
    by_id.emplace(s.fresh.id, s.fresh.match);
  }

  const std::string a = image(seed);
  for (int i = 0; i < 1000; ++i) (void)flowspace::next_rule_id();  // unrelated ids
  const std::string b = image(seed);
  expect(a == b, "same seed, same tables and stream byte for byte");
  expect(a != image(seed + 1), "another seed, another stream");

  if (failures == 0) std::printf("generator_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
