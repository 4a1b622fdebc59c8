#include "churn_stream.h"

#include "classbench/generator.h"

namespace perfbench {

using ruletris::flowspace::Rule;
using ruletris::flowspace::RuleId;
using ruletris::flowspace::ScopedRuleIdNamespace;

namespace {
// Disjoint id ranges: the compiler's own allocations use the process
// counter, which never gets near these.
constexpr RuleId kPolicyIdBase = RuleId{1} << 40;
constexpr RuleId kStreamIdBase = RuleId{1} << 48;
}  // namespace

WidePolicy make_wide_policy(uint64_t seed) {
  RuleId counter = kPolicyIdBase;
  ScopedRuleIdNamespace ns(&counter);
  ruletris::util::Rng rng(ruletris::util::Rng(seed ^ 0x5eed0a11ULL).next_u64());
  WidePolicy p;
  p.monitor = ruletris::classbench::generate_monitor(kWideMonitorRules, rng);
  p.router = ruletris::classbench::generate_router(kWideRouterRules, rng);
  return p;
}

SwapStream::SwapStream(uint64_t seed, const WidePolicy& policy)
    : rng_(ruletris::util::Rng(seed ^ 0x5a4a95ULL).next_u64()),
      id_counter_(kStreamIdBase) {
  for (const Rule& r : policy.router) router_.push_back(r.match);
  for (const Rule& r : policy.monitor) {
    matches_.insert(r.match);
    if (!r.match.is_wildcard()) live_.push_back({r.id, r.match, footprint(r.match)});
  }
}

size_t SwapStream::footprint(const ruletris::flowspace::TernaryMatch& m) const {
  size_t n = 0;
  for (const auto& r : router_) n += m.overlaps(r);
  return n;
}

Swap SwapStream::next() {
  ScopedRuleIdNamespace ns(&id_counter_);
  Swap s;
  auto& victim = live_[static_cast<size_t>(rng_.next_below(live_.size()))];
  do {
    s.fresh = ruletris::classbench::random_monitor_rule(kWideMonitorRules, rng_);
  } while (matches_.count(s.fresh.match) != 0 ||
           footprint(s.fresh.match) != victim.footprint);
  s.victim = victim.id;
  matches_.erase(victim.match);
  matches_.insert(s.fresh.match);
  victim = {s.fresh.id, s.fresh.match, victim.footprint};
  return s;
}

std::string to_text(const Swap& swap) {
  return std::to_string(swap.victim) + " " + swap.fresh.to_string() + "\n";
}

}  // namespace perfbench
