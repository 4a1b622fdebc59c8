// Inputs of the wide_policy_churn workload, made from the seed alone.
//
// The policy is monitor(10000) ∥ router(128). The update stream is a closed
// loop of remove+insert swaps on the monitor leaf: each swap removes a
// uniformly chosen live monitor rule and inserts a fresh rule drawn from
// classbench::random_monitor_rule. The match-all default that
// generate_monitor appends is never a victim, and no replacement is ever
// match-all (generate_monitor(1).front() would be: it returns only that
// default). Like generate_monitor, the stream never holds two live rules
// with the same match, and each fresh rule overlaps as many router rules as
// its victim does (its composed footprint): a fresh rule that breaks either
// is drawn again. Without that the visible table drifts (duplicates shadow
// each other and it shrinks by about 11 % over 10 k swaps; unmatched
// footprints make it wander by about 1 %, half the TCAM's free space), so
// entry moves per update would depend on the seed and the run length.
//
// Rule ids come from private namespaces (flowspace::ScopedRuleIdNamespace),
// so a seed gives the same tables and the same stream byte for byte,
// whatever else the process allocated before.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "flowspace/rule.h"
#include "util/rng.h"

namespace perfbench {

inline constexpr size_t kWideMonitorRules = 10000;
inline constexpr size_t kWideRouterRules = 128;

struct WidePolicy {
  std::vector<ruletris::flowspace::Rule> monitor;  // last rule: match-all default
  std::vector<ruletris::flowspace::Rule> router;
};

/// Generates both member tables for `seed`.
WidePolicy make_wide_policy(uint64_t seed);

struct Swap {
  ruletris::flowspace::RuleId victim = ruletris::flowspace::kInvalidRuleId;
  ruletris::flowspace::Rule fresh;
};

class SwapStream {
 public:
  /// `policy.monitor` is the initial monitor table; every rule but
  /// match-all ones starts live.
  SwapStream(uint64_t seed, const WidePolicy& policy);

  /// The next swap; its fresh rule replaces the victim in the live set.
  Swap next();

 private:
  struct Live {
    ruletris::flowspace::RuleId id;
    ruletris::flowspace::TernaryMatch match;
    size_t footprint;
  };
  /// Router rules `m` overlaps: the number of entries it composes into.
  size_t footprint(const ruletris::flowspace::TernaryMatch& m) const;

  ruletris::util::Rng rng_;
  ruletris::flowspace::RuleId id_counter_;
  std::vector<ruletris::flowspace::TernaryMatch> router_;
  std::vector<Live> live_;
  std::unordered_set<ruletris::flowspace::TernaryMatch,
                     ruletris::flowspace::TernaryMatchHash>
      matches_;
};

/// One swap as text (victim id, then the fresh rule with id, priority,
/// match and actions): the byte image the determinism check compares.
std::string to_text(const Swap& swap);

}  // namespace perfbench
