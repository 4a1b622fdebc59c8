// Unit and property tests for the flow-space algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "flowspace/action.h"
#include "flowspace/rule.h"
#include "flowspace/rule_index.h"
#include "flowspace/ternary.h"
#include "test_util.h"

namespace ruletris {
namespace {

using flowspace::Action;
using flowspace::ActionList;
using flowspace::ActionType;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleIndex;
using flowspace::TernaryMatch;
using testutil::random_match;
using testutil::random_packet;
using util::Rng;

TEST(TernaryMatch, WildcardMatchesEverything) {
  const TernaryMatch m = TernaryMatch::wildcard();
  EXPECT_TRUE(m.is_wildcard());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(m.matches(random_packet(rng)));
}

TEST(TernaryMatch, ExactMatch) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, 80);
  Packet p;
  p.set(FieldId::kDstPort, 80);
  EXPECT_TRUE(m.matches(p));
  p.set(FieldId::kDstPort, 81);
  EXPECT_FALSE(m.matches(p));
}

TEST(TernaryMatch, PrefixSemantics) {
  TernaryMatch m;
  m.set_prefix(FieldId::kDstIp, 0x0a000000, 8);  // 10.0.0.0/8
  Packet p;
  p.set(FieldId::kDstIp, 0x0a123456);
  EXPECT_TRUE(m.matches(p));
  p.set(FieldId::kDstIp, 0x0b000000);
  EXPECT_FALSE(m.matches(p));
}

TEST(TernaryMatch, PrefixZeroIsWildcard) {
  TernaryMatch m;
  m.set_prefix(FieldId::kSrcIp, 0xdeadbeef, 0);
  EXPECT_TRUE(m.is_wildcard());
}

TEST(TernaryMatch, PrefixTooLongThrows) {
  TernaryMatch m;
  EXPECT_THROW(m.set_prefix(FieldId::kDstPort, 0, 17), std::invalid_argument);
}

TEST(TernaryMatch, MaskOutsideWidthThrows) {
  TernaryMatch m;
  EXPECT_THROW(m.set_ternary(FieldId::kIpProto, 0, 0x100), std::invalid_argument);
}

TEST(TernaryMatch, ValueCanonicalizedUnderMask) {
  TernaryMatch a, b;
  a.set_ternary(FieldId::kDstPort, 0x00ff, 0xff00);
  b.set_ternary(FieldId::kDstPort, 0x0000, 0xff00);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(TernaryMatch, OverlapSymmetricAndIntersect) {
  TernaryMatch a, b;
  a.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  b.set_prefix(FieldId::kDstIp, 0x0a0a0000, 16);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  auto inter = a.intersect(b);
  ASSERT_TRUE(inter.has_value());
  EXPECT_EQ(*inter, b);  // nested prefixes: intersection is the narrower one
}

TEST(TernaryMatch, DisjointPrefixes) {
  TernaryMatch a, b;
  a.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  b.set_prefix(FieldId::kDstIp, 0x0b000000, 8);
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(a.intersect(b).has_value());
}

TEST(TernaryMatch, SubsumesBasics) {
  TernaryMatch wide, narrow;
  wide.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  narrow.set_prefix(FieldId::kDstIp, 0x0a0a0000, 16);
  EXPECT_TRUE(wide.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wide));
  EXPECT_TRUE(TernaryMatch::wildcard().subsumes(wide));
  EXPECT_TRUE(wide.subsumes(wide));
}

TEST(TernaryMatch, SubtractDisjointReturnsSelf) {
  TernaryMatch a, b;
  a.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  b.set_prefix(FieldId::kDstIp, 0x0b000000, 8);
  auto pieces = a.subtract(b);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], a);
}

TEST(TernaryMatch, SubtractSubsumedIsEmpty) {
  TernaryMatch a, b;
  a.set_prefix(FieldId::kDstIp, 0x0a0a0000, 16);
  b.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  EXPECT_TRUE(a.subtract(b).empty());  // a ⊆ b
}

TEST(TernaryMatch, SubtractPiecesDisjointAndExact) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    const TernaryMatch a = random_match(rng);
    const TernaryMatch b = random_match(rng);
    const auto pieces = a.subtract(b);
    // Each piece is inside a and outside b.
    for (const auto& piece : pieces) {
      EXPECT_TRUE(a.subsumes(piece));
      EXPECT_FALSE(piece.overlaps(b));
    }
    // Pieces are pairwise disjoint.
    for (size_t i = 0; i < pieces.size(); ++i) {
      for (size_t j = i + 1; j < pieces.size(); ++j) {
        EXPECT_FALSE(pieces[i].overlaps(pieces[j]));
      }
    }
    // Point check: random packets in a land in exactly one of
    // (pieces ∪ a∩b).
    for (int k = 0; k < 20; ++k) {
      Packet p = random_packet(rng);
      if (!a.matches(p)) continue;
      size_t hits = b.matches(p) ? 1 : 0;
      for (const auto& piece : pieces) {
        if (piece.matches(p)) ++hits;
      }
      EXPECT_EQ(hits, 1u) << "packet in a must be in b xor exactly one piece";
    }
  }
}

TEST(TernaryMatch, CoverByParts) {
  TernaryMatch whole, left, right;
  whole.set_prefix(FieldId::kDstIp, 0x80000000, 1);
  left.set_prefix(FieldId::kDstIp, 0x80000000, 2);
  right.set_prefix(FieldId::kDstIp, 0xc0000000, 2);
  EXPECT_TRUE(flowspace::is_covered_by(whole, {left, right}));
  EXPECT_FALSE(flowspace::is_covered_by(whole, {left}));
}

TEST(TernaryMatch, CoverBySelf) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const TernaryMatch m = random_match(rng);
    EXPECT_TRUE(flowspace::is_covered_by(m, {m}));
    EXPECT_TRUE(flowspace::is_covered_by(m, {TernaryMatch::wildcard()}));
  }
}

TEST(TernaryMatch, SamplePacketInsideMatch) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const TernaryMatch m = random_match(rng);
    EXPECT_TRUE(m.matches(m.sample_packet()));
  }
}

TEST(TernaryMatch, ToStringMentionsConstrainedFields) {
  TernaryMatch m;
  m.set_prefix(FieldId::kDstIp, 0x0a000000, 8).set_exact(FieldId::kDstPort, 80);
  const std::string s = m.to_string();
  EXPECT_NE(s.find("dst_ip=10.0.0.0/8"), std::string::npos);
  EXPECT_NE(s.find("dst_port=80"), std::string::npos);
}

// --- actions ---------------------------------------------------------------

TEST(ActionList, CanonicalizationDedupes) {
  ActionList a{Action::drop(), Action::drop(), Action::forward(3)};
  EXPECT_EQ(a.size(), 2u);
  ActionList b{Action::forward(3), Action::drop()};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ActionList, ParallelUnion) {
  const ActionList a{Action::count(1)};
  const ActionList b{Action::forward(2)};
  const ActionList u = ActionList::parallel_union(a, b);
  EXPECT_TRUE(u.contains(ActionType::kCount));
  EXPECT_TRUE(u.contains(ActionType::kForward));
  EXPECT_EQ(u.size(), 2u);
}

TEST(ActionList, SequentialMergeRightOverridesRewrites) {
  const ActionList left{Action::set_field(FieldId::kDstIp, 1), Action::set_field(FieldId::kDstPort, 8080)};
  const ActionList right{Action::set_field(FieldId::kDstIp, 2), Action::forward(1)};
  const ActionList merged = ActionList::sequential_merge(left, right);
  // dst_ip rewrite overridden by the right stage; dst_port survives.
  bool saw_ip2 = false, saw_port = false;
  for (const Action& a : merged.actions()) {
    if (a.is_set_field() && a.field == FieldId::kDstIp) {
      EXPECT_EQ(a.arg, 2u);
      saw_ip2 = true;
    }
    if (a.is_set_field() && a.field == FieldId::kDstPort) saw_port = true;
  }
  EXPECT_TRUE(saw_ip2);
  EXPECT_TRUE(saw_port);
  EXPECT_TRUE(merged.contains(ActionType::kForward));
}

TEST(ActionList, SequentialMergeConsumesLeftForward) {
  const ActionList left{Action::forward(9)};
  const ActionList right{Action::forward(1)};
  const ActionList merged = ActionList::sequential_merge(left, right);
  ASSERT_EQ(merged.set_fields().size(), 0u);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.actions()[0].arg, 1u);
}

TEST(ActionList, RewritePacket) {
  const ActionList mods{Action::set_field(FieldId::kDstIp, 0x01020304)};
  Packet p;
  p.set(FieldId::kDstIp, 0x0a0a0a0a);
  EXPECT_EQ(mods.apply_rewrites(p).get(FieldId::kDstIp), 0x01020304u);
}

TEST(ActionList, RewriteMatchMakesFieldExact) {
  const ActionList mods{Action::set_field(FieldId::kDstIp, 0x01020304)};
  TernaryMatch m;
  m.set_prefix(FieldId::kDstIp, 0x0a000000, 8).set_exact(FieldId::kDstPort, 80);
  const TernaryMatch out = mods.apply_rewrites(m);
  EXPECT_EQ(out.field(FieldId::kDstIp).value, 0x01020304u);
  EXPECT_EQ(out.field(FieldId::kDstIp).mask, 0xffffffffu);
  EXPECT_EQ(out.field(FieldId::kDstPort).value, 80u);
}

TEST(ActionList, PreimageCompatible) {
  const ActionList mods{Action::set_field(FieldId::kDstIp, 0x0a000001)};
  TernaryMatch target;
  target.set_prefix(FieldId::kDstIp, 0x0a000000, 8).set_exact(FieldId::kDstPort, 443);
  auto pre = mods.rewrite_preimage(target);
  ASSERT_TRUE(pre.has_value());
  // dst_ip constraint is absorbed by the rewrite; dst_port remains.
  EXPECT_EQ(pre->field(FieldId::kDstIp).mask, 0u);
  EXPECT_EQ(pre->field(FieldId::kDstPort).value, 443u);
}

TEST(ActionList, PreimageConflictIsEmpty) {
  const ActionList mods{Action::set_field(FieldId::kDstIp, 0x0b000000)};
  TernaryMatch target;
  target.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  EXPECT_FALSE(mods.rewrite_preimage(target).has_value());
}

/// Property: pre-image is exact — p matches pre(m) iff rewrite(p) matches m.
TEST(ActionList, PreimagePointwiseCorrect) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Action> mods;
    if (rng.next_bool(0.7)) {
      mods.push_back(Action::set_field(
          FieldId::kDstIp, static_cast<uint32_t>(rng.next_below(4)) << 30));
    }
    if (rng.next_bool(0.4)) {
      mods.push_back(Action::set_field(FieldId::kDstPort,
                                       80 + static_cast<uint32_t>(rng.next_below(3))));
    }
    const ActionList list{ActionList(std::move(mods))};
    const TernaryMatch m = random_match(rng);
    const auto pre = list.rewrite_preimage(m);
    for (int k = 0; k < 20; ++k) {
      const Packet p = random_packet(rng);
      const bool via_rewrite = m.matches(list.apply_rewrites(p));
      const bool via_preimage = pre.has_value() && pre->matches(p);
      EXPECT_EQ(via_rewrite, via_preimage);
    }
  }
}

// --- ActionList storage: inline up to kInline actions, heap beyond ---------

/// The vector-backed canonical form: sorted, duplicate-free.
std::vector<Action> canonical(std::vector<Action> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// The hash the vector-backed list computed (FNV-style over the canonical
/// actions), kept here as the reference.
size_t vector_hash(const std::vector<Action>& v) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const Action& a : v) {
    h ^= (static_cast<uint64_t>(a.type) << 40) ^ (static_cast<uint64_t>(a.field) << 32) ^
         a.arg;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

std::vector<Action> as_vector(const ActionList& l) {
  return {l.actions().begin(), l.actions().end()};
}

/// `n` distinct actions: forwards, counters and rewrites.
std::vector<Action> distinct_actions(size_t n) {
  std::vector<Action> out;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = static_cast<uint32_t>(i);
    switch (i % 3) {
      case 0: out.push_back(Action::forward(k)); break;
      case 1: out.push_back(Action::count(k)); break;
      default: out.push_back(Action::set_field(FieldId::kDstPort, k)); break;
    }
  }
  return out;
}

TEST(ActionList, CopyMoveAndSelfAssignAcrossTheInlineBoundary) {
  for (const size_t n : {size_t{0}, ActionList::kInline, ActionList::kInline + 1, size_t{9}}) {
    const std::vector<Action> want = canonical(distinct_actions(n));
    const ActionList original(distinct_actions(n));
    ASSERT_EQ(as_vector(original), want) << n;

    ActionList copy(original);
    EXPECT_EQ(copy, original) << n;
    EXPECT_NE(copy.actions().data(), original.actions().data()) << n;  // no sharing

    ActionList assigned{Action::drop()};
    assigned = original;
    EXPECT_EQ(as_vector(assigned), want) << n;

    ActionList moved(std::move(copy));
    EXPECT_EQ(as_vector(moved), want) << n;
    EXPECT_TRUE(copy.empty()) << n;  // a moved-from list is empty
    copy = original;                 // and reusable
    EXPECT_EQ(copy, original) << n;

    ActionList move_assigned(distinct_actions(5));
    move_assigned = std::move(moved);
    EXPECT_EQ(as_vector(move_assigned), want) << n;

    ActionList& alias = move_assigned;
    move_assigned = alias;  // self copy-assignment
    EXPECT_EQ(as_vector(move_assigned), want) << n;
    move_assigned = std::move(alias);  // self move-assignment
    EXPECT_EQ(as_vector(move_assigned), want) << n;

    ActionList grown(original);
    grown.add(Action::to_software());
    std::vector<Action> grown_want = want;
    grown_want.push_back(Action::to_software());
    EXPECT_EQ(as_vector(grown), canonical(grown_want)) << n;
  }
}

TEST(ActionList, CompositionCrossesTheInlineBoundary) {
  // Two inline lists whose union spills, and a spilled list whose
  // sequential merge shrinks back inline.
  const ActionList a{Action::count(1), Action::count(2)};
  const ActionList b{Action::count(2), Action::count(3), Action::forward(4)};
  const ActionList u = ActionList::parallel_union(a, b);
  EXPECT_EQ(u.size(), 4u);
  EXPECT_EQ(as_vector(u),
            canonical({Action::count(1), Action::count(2), Action::count(3),
                       Action::forward(4)}));

  const ActionList left{Action::forward(1), Action::set_field(FieldId::kDstIp, 1),
                        Action::set_field(FieldId::kDstPort, 2), Action::count(7)};
  const ActionList right{Action::set_field(FieldId::kDstIp, 9),
                         Action::set_field(FieldId::kDstPort, 8)};
  const ActionList merged = ActionList::sequential_merge(left, right);
  EXPECT_EQ(as_vector(merged),
            canonical({Action::count(7), Action::set_field(FieldId::kDstIp, 9),
                       Action::set_field(FieldId::kDstPort, 8)}));
}

TEST(ActionList, EqualityAndHashMatchTheVectorForm) {
  Rng rng(23);
  auto random_actions = [&rng] {
    std::vector<Action> v;
    const size_t n = rng.next_below(7);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t arg = static_cast<uint32_t>(rng.next_below(3));
      switch (rng.next_below(3)) {
        case 0: v.push_back(Action::forward(arg)); break;
        case 1: v.push_back(Action::count(arg)); break;
        default: v.push_back(Action::set_field(FieldId::kDstPort, arg)); break;
      }
    }
    return v;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<Action> va = random_actions();
    const std::vector<Action> vb = random_actions();
    const ActionList a(va);
    const ActionList b(vb);
    EXPECT_EQ(as_vector(a), canonical(va));
    EXPECT_EQ(a.hash(), vector_hash(canonical(va)));
    EXPECT_EQ(a == b, canonical(va) == canonical(vb));
    std::vector<Action> vu = va;
    vu.insert(vu.end(), vb.begin(), vb.end());
    const ActionList u = ActionList::parallel_union(a, b);
    EXPECT_EQ(as_vector(u), canonical(vu));
    EXPECT_EQ(u.hash(), vector_hash(canonical(vu)));
  }
}

// --- rules and tables -------------------------------------------------------

TEST(FlowTable, PriorityOrderAndLookup) {
  TernaryMatch narrow, wide;
  narrow.set_prefix(FieldId::kDstIp, 0x0a0a0000, 16);
  wide.set_prefix(FieldId::kDstIp, 0x0a000000, 8);
  FlowTable t;
  const auto wide_id = t.insert(Rule::make(wide, ActionList{Action::forward(1)}, 10));
  const auto narrow_id = t.insert(Rule::make(narrow, ActionList{Action::forward(2)}, 20));
  EXPECT_EQ(t.position(narrow_id), 0u);
  EXPECT_EQ(t.position(wide_id), 1u);

  Packet p;
  p.set(FieldId::kDstIp, 0x0a0a0101);
  ASSERT_NE(t.lookup(p), nullptr);
  EXPECT_EQ(t.lookup(p)->id, narrow_id);
}

TEST(FlowTable, EqualPriorityStableOrder) {
  FlowTable t;
  const auto first = t.insert(Rule::make(TernaryMatch::wildcard(), ActionList{Action::drop()}, 5));
  const auto second = t.insert(Rule::make(TernaryMatch::wildcard(), ActionList{Action::forward(1)}, 5));
  EXPECT_LT(t.position(first), t.position(second));
}

TEST(FlowTable, EraseAndMissingLookups) {
  FlowTable t;
  const auto id = t.insert(Rule::make(TernaryMatch::wildcard(), ActionList{Action::drop()}, 1));
  EXPECT_TRUE(t.erase(id).has_value());
  EXPECT_FALSE(t.erase(id).has_value());
  EXPECT_THROW(t.rule(id), std::out_of_range);
  Packet p;
  EXPECT_EQ(t.lookup(p), nullptr);
}

TEST(FlowTable, DuplicateIdRejected) {
  FlowTable t;
  Rule r = Rule::make(TernaryMatch::wildcard(), ActionList{Action::drop()}, 1);
  t.insert(r);
  EXPECT_THROW(t.insert(r), std::invalid_argument);
}

TEST(RuleIndex, FindsAllOverlaps) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    RuleIndex index;
    std::vector<Rule> rules;
    for (int i = 0; i < 40; ++i) {
      rules.push_back(testutil::random_rule(rng, i));
      index.insert(rules.back().id, rules.back().match);
    }
    const TernaryMatch probe = random_match(rng);
    auto found = index.find_overlapping(probe);
    std::unordered_set<flowspace::RuleId> found_set(found.begin(), found.end());
    for (const Rule& r : rules) {
      EXPECT_EQ(found_set.count(r.id) != 0, r.match.overlaps(probe))
          << "rule " << r.to_string() << " probe " << probe.to_string();
    }
  }
}

TEST(RuleIndex, EraseRemoves) {
  RuleIndex index;
  TernaryMatch m;
  m.set_exact(FieldId::kIpProto, 6);
  index.insert(1, m);
  index.insert(2, TernaryMatch::wildcard());
  index.erase(1);
  auto found = index.find_overlapping(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 2u);
}

}  // namespace
}  // namespace ruletris
