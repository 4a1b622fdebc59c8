// Golden output of the incremental RuleTris front-end.
//
// Seeded churn runs through RuleTrisCompiler for four policy trees — the
// paper's parallel (monitor + router) and sequential (NAT > router) shapes,
// a priority composition and one nested tree — and every update the root
// emits is hashed in emission order: removed ids, added rules, and the DAG
// vertex and edge deltas. The final CompileSnapshot is hashed too. The
// constants pin the compiler's observable output, so a refactor or
// optimisation of the composition internals must leave them unchanged.
//
// The pinned BENCH fingerprints all come from parallel-operator fleets, and
// the recorded-delta tests compare the compiler only with itself, so this
// is the one fixed-value check on sequential, priority and nested output.
// Rule ids come from a private ScopedRuleIdNamespace, so they do not depend
// on what else the process allocated.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/ruletris_compiler.h"
#include "test_util.h"

namespace ruletris {
namespace {

using compiler::CompileSnapshot;
using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using util::Rng;

/// FNV-1a over a stream of 64-bit words and strings.
class Fnv {
 public:
  void word(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void text(const std::string& s) {
    word(s.size());
    for (char c : s) byte(static_cast<uint8_t>(c));
  }
  void match(const TernaryMatch& m) {
    for (FieldId f : flowspace::kAllFields) {
      word(m.field(f).value);
      word(m.field(f).mask);
    }
  }
  void rule(const Rule& r) {
    word(r.id);
    match(r.match);
    text(r.actions.to_string());
    word(static_cast<uint64_t>(static_cast<int64_t>(r.priority)));
  }
  void edges(const std::vector<std::pair<RuleId, RuleId>>& es) {
    word(es.size());
    for (const auto& [u, v] : es) {
      word(u);
      word(v);
    }
  }
  void ids(const std::vector<RuleId>& v) {
    word(v.size());
    for (RuleId id : v) word(id);
  }
  uint64_t value() const { return h_; }

 private:
  void byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_update(Fnv& h, const TableUpdate& u) {
  h.ids(u.removed);
  h.word(u.added.size());
  for (const Rule& r : u.added) h.rule(r);
  h.ids(u.dag.removed_vertices);
  h.edges(u.dag.removed_edges);
  h.ids(u.dag.added_vertices);
  h.edges(u.dag.added_edges);
}

void hash_snapshot(Fnv& h, const CompileSnapshot& s) {
  h.word(s.entries.size());
  for (const auto& [l, r, m, a] : s.entries) {
    h.word(l);
    h.word(r);
    h.match(m);
    h.text(a.to_string());
  }
  h.word(s.reps.size());
  for (const auto& [l, r] : s.reps) {
    h.word(l);
    h.word(r);
  }
  h.word(s.visible_edges.size());
  for (const auto& [u, v] : s.visible_edges) {
    h.word(u.first);
    h.word(u.second);
    h.word(v.first);
    h.word(v.second);
  }
}

/// Header rewrites on some rules so the sequential operator's rewrite path
/// runs (as in the composition-compile tests).
Rule random_rule(Rng& rng) {
  ActionList actions = testutil::random_actions(rng);
  if (rng.next_bool(0.3)) {
    actions = ActionList{Action::set_field(FieldId::kDstIp,
                                           static_cast<uint32_t>(rng.next_below(4)) << 30),
                         Action::forward(1 + static_cast<uint32_t>(rng.next_below(3)))};
  }
  return Rule::make(testutil::random_match(rng), std::move(actions),
                    static_cast<int32_t>(rng.next_below(1000)));
}

struct GoldenHashes {
  uint64_t updates;
  uint64_t snapshot;
  size_t edge_changes = 0;  // guards against hashing a stream of no-ops
};

/// Builds one tree's leaves with `make_table`, churns them with rules from
/// `make_rule` (inserts, removals, modifies; the last rule of a protected
/// leaf's initial table never leaves), and hashes the root's output.
template <typename MakeTable, typename MakeRule>
GoldenHashes run_churn(const PolicySpec& spec, uint64_t seed, size_t updates,
                       MakeTable make_table, MakeRule make_rule,
                       const std::string& protected_leaf = "") {
  RuleId counter = RuleId{1} << 40;
  flowspace::ScopedRuleIdNamespace ns(&counter);
  Rng rng(seed);
  std::map<std::string, FlowTable> tables;
  std::map<std::string, std::vector<RuleId>> live;
  RuleId protected_id = flowspace::kInvalidRuleId;
  for (const std::string& leaf : spec.leaf_names()) {
    const std::vector<Rule> rules = make_table(leaf, rng);
    for (const Rule& r : rules) live[leaf].push_back(r.id);
    if (leaf == protected_leaf) protected_id = rules.back().id;
    tables.emplace(leaf, FlowTable{rules});
  }
  RuleTrisCompiler frontend(spec, std::move(tables));

  Fnv h;
  size_t edge_changes = 0;
  const std::vector<std::string> leaves = spec.leaf_names();
  for (size_t step = 0; step < updates; ++step) {
    const std::string& leaf = leaves[rng.next_below(leaves.size())];
    std::vector<RuleId>& ids = live[leaf];
    const double op = rng.next_double();
    size_t victim = ids.empty() ? 0 : rng.next_below(ids.size());
    const bool can_remove = ids.size() > 2 && ids[victim] != protected_id;
    TableUpdate out;
    if (op < 0.4 || !can_remove) {
      const Rule fresh = make_rule(leaf, rng);
      ids.push_back(fresh.id);
      out = frontend.insert(leaf, fresh);
    } else if (op < 0.75) {
      out = frontend.remove(leaf, ids[victim]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Rule fresh = make_rule(leaf, rng);
      out = frontend.modify(leaf, ids[victim], fresh);
      ids[victim] = fresh.id;
    }
    hash_update(h, out);
    edge_changes += out.dag.added_edges.size() + out.dag.removed_edges.size();
  }
  Fnv snap;
  hash_snapshot(snap, dynamic_cast<compiler::ComposedNode&>(frontend.root()).snapshot());
  return {h.value(), snap.value(), edge_changes};
}

void expect_golden(const GoldenHashes& got, const GoldenHashes& want,
                   const char* tree) {
  EXPECT_EQ(got.updates, want.updates)
      << tree << ": update stream hash 0x" << std::hex << got.updates;
  EXPECT_EQ(got.snapshot, want.snapshot)
      << tree << ": snapshot hash 0x" << std::hex << got.snapshot;
  EXPECT_GT(got.edge_changes, 0u) << tree;
}

TEST(CompileGolden, ParallelMonitorRouter) {
  const GoldenHashes got = run_churn(
      PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr")), 11, 300,
      [](const std::string& leaf, Rng& rng) {
        return leaf == "mon" ? classbench::generate_monitor(60, rng)
                             : classbench::generate_router(40, rng);
      },
      [](const std::string& leaf, Rng& rng) {
        return leaf == "mon" ? classbench::random_monitor_rule(60, rng)
                             : classbench::generate_router(1, rng).front();
      },
      "mon");
  expect_golden(got, {0x19cdd636035b445fULL, 0xaf93e42fc25b5bf4ULL}, "mon + rtr");
}

TEST(CompileGolden, SequentialNatRouter) {
  // The router is fixed: NAT translations target its prefixes. The NAT's
  // passthrough default (its last rule) is never churned.
  Rng router_rng(12);
  const std::vector<Rule> router = [&] {
    RuleId counter = RuleId{1} << 41;
    flowspace::ScopedRuleIdNamespace ns(&counter);
    return classbench::generate_router(40, router_rng);
  }();
  const GoldenHashes got = run_churn(
      PolicySpec::sequential(PolicySpec::leaf("nat"), PolicySpec::leaf("rtr")), 12, 300,
      [&](const std::string& leaf, Rng& rng) {
        return leaf == "nat" ? classbench::generate_nat(50, router, rng) : router;
      },
      [&](const std::string& leaf, Rng& rng) {
        return leaf == "nat" ? classbench::random_nat_rule(router, 50, rng)
                             : classbench::generate_router(1, rng).front();
      },
      "nat");
  expect_golden(got, {0xcf915db6366e6e92ULL, 0xccb80e67b3bca49eULL}, "nat > rtr");
}

TEST(CompileGolden, PriorityRandomTables) {
  const GoldenHashes got = run_churn(
      PolicySpec::priority(PolicySpec::leaf("hi"), PolicySpec::leaf("lo")), 13, 300,
      [](const std::string&, Rng& rng) {
        std::vector<Rule> rules;
        for (int i = 0; i < 30; ++i) rules.push_back(random_rule(rng));
        return rules;
      },
      [](const std::string&, Rng& rng) { return random_rule(rng); });
  expect_golden(got, {0xf8b8b04102e7e7a1ULL, 0xe703eadbaf9f5fa1ULL}, "hi $ lo");
}

TEST(CompileGolden, NestedParallelThenSequential) {
  const GoldenHashes got = run_churn(
      PolicySpec::sequential(
          PolicySpec::parallel(PolicySpec::leaf("a"), PolicySpec::leaf("b")),
          PolicySpec::leaf("c")),
      14, 120,
      [](const std::string&, Rng& rng) {
        std::vector<Rule> rules;
        for (int i = 0; i < 6; ++i) rules.push_back(random_rule(rng));
        return rules;
      },
      [](const std::string&, Rng& rng) { return random_rule(rng); });
  expect_golden(got, {0x832c00e4cf21b54bULL, 0x7374854da72a32c1ULL}, "(a + b) > c");
}

}  // namespace
}  // namespace ruletris
