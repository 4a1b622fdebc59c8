// Property tests for the indexed/parallel minimum-DAG builders, the
// allocation-free cover kernel, and the two-level rule index.
//
// The brute-force builder is the oracle: the indexed serial builder and the
// parallel builder must produce the exact same edge set on every table,
// including tables that hit the fragment budget (where all builders fall
// back to the same conservative policy, so serial and parallel must still be
// bit-identical even when they diverge from an unbounded oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "flowspace/rule_index.h"
#include "flowspace/ternary.h"
#include "test_util.h"

namespace ruletris {
namespace {

using dag::build_min_dag;
using dag::build_min_dag_brute;
using dag::build_min_dag_parallel;
using dag::DependencyGraph;
using dag::MinDagBuildOptions;
using flowspace::CoverResult;
using flowspace::CoverScratch;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::RuleIndex;
using flowspace::TernaryMatch;
using flowspace::try_cover;
using util::Rng;

FlowTable random_table(Rng& rng, size_t n) {
  // Small-universe matches (test_util) overlap heavily, so these tables have
  // dense candidate sets and real between-rule cover relationships.
  std::vector<Rule> rules;
  rules.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rules.push_back(testutil::random_rule(rng, static_cast<int32_t>(n - i)));
  }
  return FlowTable{rules};
}

class MinDagBuilders : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinDagBuilders, SerialAndParallelMatchBruteForceOnRandomTables) {
  Rng rng(GetParam());
  for (const size_t n : {20ul, 60ul, 120ul}) {
    const FlowTable table = random_table(rng, n);
    const DependencyGraph oracle = build_min_dag_brute(table);
    // Default options: tables this small take the direct path.
    const DependencyGraph direct = build_min_dag(table);
    EXPECT_TRUE(direct == oracle) << "direct path diverged at n=" << n;
    // Force the indexed path despite the small-table cutoff.
    MinDagBuildOptions indexed_opts;
    indexed_opts.direct_cutoff = 0;
    const DependencyGraph serial = build_min_dag(table, indexed_opts);
    EXPECT_TRUE(serial == oracle) << "indexed serial diverged at n=" << n;
    for (const size_t threads : {1ul, 2ul, 4ul}) {
      MinDagBuildOptions opts;
      opts.n_threads = threads;
      opts.parallel_cutoff = 0;  // force the sharded path even for tiny tables
      opts.direct_cutoff = 0;    // ...and past the small-table shortcut
      const DependencyGraph parallel = build_min_dag_parallel(table, opts);
      EXPECT_TRUE(parallel == oracle)
          << "parallel diverged at n=" << n << " threads=" << threads;
    }
  }
}

TEST_P(MinDagBuilders, BuildersAgreeOnClassbenchProfiles) {
  Rng rng(GetParam() ^ 0xc1a55);
  const std::vector<Rule> profiles[] = {
      classbench::generate_router(150, rng),
      classbench::generate_monitor(100, rng),
      classbench::generate_firewall(80, rng),
  };
  for (const auto& rules : profiles) {
    const FlowTable table{rules};
    const DependencyGraph oracle = build_min_dag_brute(table);
    EXPECT_TRUE(build_min_dag(table) == oracle);  // direct path at these sizes
    EXPECT_TRUE(build_min_dag_parallel(table, 4) == oracle);
    MinDagBuildOptions indexed_opts;
    indexed_opts.direct_cutoff = 0;
    indexed_opts.parallel_cutoff = 0;
    EXPECT_TRUE(build_min_dag(table, indexed_opts) == oracle);
    indexed_opts.n_threads = 4;
    EXPECT_TRUE(build_min_dag_parallel(table, indexed_opts) == oracle);
  }
}

TEST_P(MinDagBuilders, DirectCutoffIsTransparent) {
  // The small-table shortcut must be invisible in the resulting edge set:
  // the same table built with the cutoff on (direct path) and off (indexed
  // path) agrees, and uses_direct_path reports which side of the crossover a
  // size lands on.
  Rng rng(GetParam() ^ 0xd1a3);
  const MinDagBuildOptions defaults;
  EXPECT_TRUE(dag::uses_direct_path(defaults.direct_cutoff - 1, defaults));
  EXPECT_FALSE(dag::uses_direct_path(defaults.direct_cutoff, defaults));
  MinDagBuildOptions disabled;
  disabled.direct_cutoff = 0;
  EXPECT_FALSE(dag::uses_direct_path(10, disabled));

  const FlowTable table = random_table(rng, 100);
  EXPECT_TRUE(build_min_dag(table, defaults) == build_min_dag(table, disabled));
}

TEST_P(MinDagBuilders, SerialAndParallelBitIdenticalUnderFragmentPressure) {
  // A tiny fragment budget makes the residue walk and the per-pair fallback
  // overflow constantly, triggering the conservative keep-the-edge policy.
  // Serial and parallel may then legitimately diverge from an unbounded
  // oracle, but they must still produce the exact same (sound) edge set.
  Rng rng(GetParam() ^ 0xf7a6);
  const FlowTable table = random_table(rng, 80);
  MinDagBuildOptions tight;
  tight.fragment_limit = 4;
  tight.residue_soft_limit = 2;
  tight.direct_cutoff = 0;  // the point is the indexed residue/fallback walk
  const DependencyGraph serial = build_min_dag(table, tight);

  MinDagBuildOptions par = tight;
  par.parallel_cutoff = 0;
  for (const size_t threads : {2ul, 4ul}) {
    par.n_threads = threads;
    EXPECT_TRUE(build_min_dag_parallel(table, par) == serial)
        << "threads=" << threads;
  }

  // Soundness: the tight budget may only add edges, never drop one.
  const DependencyGraph exact = build_min_dag(table);
  for (const auto& [u, v] : exact.edges()) {
    EXPECT_TRUE(serial.has_edge(u, v))
        << "overflow policy dropped real edge " << u << "->" << v;
  }
}

TEST_P(MinDagBuilders, SerialAndParallelCountTheSameOverflows) {
  // Every conservative edge kept on overflow is counted, and the count is a
  // property of the table and the budget, not of how rows were sharded.
  Rng rng(GetParam() ^ 0xf7a6);
  const FlowTable table = random_table(rng, 80);
  MinDagBuildOptions tight;
  tight.fragment_limit = 4;
  tight.residue_soft_limit = 2;
  tight.direct_cutoff = 0;
  dag::MinDagBuildStats serial;
  build_min_dag(table, tight, &serial);
  EXPECT_GT(serial.cover_overflows, 0u);

  MinDagBuildOptions par = tight;
  par.parallel_cutoff = 0;
  for (const size_t threads : {2ul, 4ul}) {
    par.n_threads = threads;
    dag::MinDagBuildStats parallel;
    build_min_dag_parallel(table, par, &parallel);
    EXPECT_EQ(parallel.cover_overflows, serial.cover_overflows) << "threads=" << threads;
  }

  // The direct small-table path counts its fallbacks too.
  MinDagBuildOptions direct = tight;
  direct.direct_cutoff = dag::kSmallTableDirectCutoff;
  dag::MinDagBuildStats direct_serial, direct_parallel;
  build_min_dag(table, direct, &direct_serial);
  EXPECT_GT(direct_serial.cover_overflows, 0u);
  direct.n_threads = 4;
  build_min_dag_parallel(table, direct, &direct_parallel);
  EXPECT_EQ(direct_parallel.cover_overflows, direct_serial.cover_overflows);

  // The default budget never overflows here; a reused stats object resets.
  build_min_dag_parallel(table, MinDagBuildOptions{}, &serial);
  EXPECT_EQ(serial.cover_overflows, 0u);
}

/// A table shaped to hit every branch of the builder's dst-prefix index:
/// match-all and dst-wildcard rows, nested prefix chains (each link extends
/// an earlier row's prefix), /32 hosts inside earlier prefixes, non-prefix
/// dst masks (the scan list), exact and wildcard ip_proto, and a few exact
/// duplicates. Random priorities put containers both above and below the
/// rules they contain. Two top dst bits keep overlaps dense.
FlowTable index_shaped_table(Rng& rng, size_t n) {
  std::vector<TernaryMatch> matches;
  std::vector<Rule> rules;
  for (size_t i = 0; i < n; ++i) {
    TernaryMatch m;
    const double shape = rng.next_double();
    const TernaryMatch* parent =
        matches.empty() ? nullptr : &matches[rng.next_below(matches.size())];
    const flowspace::FieldTernary pdst =
        parent != nullptr ? parent->field(FieldId::kDstIp) : flowspace::FieldTernary{};
    const bool parent_prefix = std::countl_one(pdst.mask) == std::popcount(pdst.mask);
    if (shape < 0.05) {
      matches.push_back(m);  // match-all
    } else if (shape < 0.08 && parent != nullptr) {
      matches.push_back(*parent);  // exact duplicate
    } else {
      const auto len = static_cast<uint32_t>(parent_prefix ? std::popcount(pdst.mask) : 0);
      const uint32_t below = len >= 32 ? 0u : rng.next_u32() >> len;  // bits under it
      if (shape < 0.15) {
        // dst wildcard: other fields only
      } else if (shape < 0.50 && parent_prefix && len < 32) {
        // Nested chain: extend the parent's prefix by 1-8 bits.
        const uint32_t ext = std::min<uint32_t>(32, len + 1 + rng.next_below(8));
        m.set_prefix(FieldId::kDstIp, pdst.value | below, ext);
      } else if (shape < 0.62) {
        // /32 host, inside the parent's prefix when it has one.
        m.set_exact(FieldId::kDstIp, parent_prefix && len > 0
                                         ? pdst.value | below
                                         : rng.next_u32() & 0xc00000ffu);
      } else if (shape < 0.72) {
        // Non-prefix dst mask: a leading prefix (often one no row has)
        // plus scattered low bits.
        const auto lead = static_cast<uint32_t>(2 + 3 * rng.next_below(3));
        m.set_ternary(FieldId::kDstIp, rng.next_u32(),
                      ~(~0u >> lead) | (rng.next_u32() & 0x0000f0f0u));
      } else {
        m.set_prefix(FieldId::kDstIp, static_cast<uint32_t>(rng.next_below(4)) << 30,
                     1 + static_cast<uint32_t>(rng.next_below(4)));
      }
      if (rng.next_bool(0.5)) {
        m.set_exact(FieldId::kIpProto, rng.next_bool(0.5) ? 6 : 17);
      }
      if (rng.next_bool(0.2)) {
        m.set_prefix(FieldId::kSrcIp, static_cast<uint32_t>(rng.next_below(4)) << 30,
                     static_cast<uint32_t>(rng.next_below(3)));
      }
      matches.push_back(m);
    }
    rules.push_back(Rule::make(matches.back(), testutil::random_actions(rng),
                               static_cast<int32_t>(rng.next_below(4 * n))));
  }
  return FlowTable{rules};
}

TEST_P(MinDagBuilders, IndexedBuildsMatchBruteForceOnIndexShapedTables) {
  // Tables over the direct cutoff, so the indexed path runs: serially, on
  // four threads, and with a residue soft limit of 2 so nearly every row
  // takes the per-pair fallback and its window-queried between-sets.
  Rng rng(GetParam() ^ 0x1d15);
  const FlowTable table = index_shaped_table(rng, 400);
  ASSERT_FALSE(dag::uses_direct_path(table.size(), MinDagBuildOptions{}));
  const DependencyGraph oracle = build_min_dag_brute(table);
  EXPECT_GT(oracle.edge_count(), table.size() / 2);

  dag::MinDagBuildStats stats;
  EXPECT_TRUE(build_min_dag(table, MinDagBuildOptions{}, &stats) == oracle);
  EXPECT_EQ(stats.cover_overflows, 0u);

  MinDagBuildOptions threaded;
  threaded.n_threads = 4;
  threaded.parallel_cutoff = 0;
  ASSERT_TRUE(dag::uses_parallel_path(table.size(), threaded));
  EXPECT_TRUE(build_min_dag_parallel(table, threaded) == oracle) << "4 threads";

  for (const size_t threads : {1ul, 4ul}) {
    MinDagBuildOptions fallback = threaded;
    fallback.n_threads = threads;
    fallback.residue_soft_limit = 2;
    EXPECT_TRUE(build_min_dag_parallel(table, fallback, &stats) == oracle)
        << "residue_soft_limit 2, threads=" << threads;
    EXPECT_EQ(stats.cover_overflows, 0u);
  }
}

class CoverKernel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverKernel, TryCoverAgreesWithLegacyIsCoveredBy) {
  Rng rng(GetParam());
  CoverScratch scratch;
  for (int i = 0; i < 300; ++i) {
    const TernaryMatch m = testutil::random_match(rng);
    std::vector<TernaryMatch> cover;
    const size_t k = rng.next_below(6);
    for (size_t j = 0; j < k; ++j) cover.push_back(testutil::random_match(rng));

    const CoverResult r = try_cover(m, cover, scratch);
    ASSERT_NE(r, CoverResult::kOverflow);  // small universe, default budget
    EXPECT_EQ(r == CoverResult::kCovered, flowspace::is_covered_by(m, cover));
  }
}

TEST(CoverKernel, ScratchIsReusableAcrossQueries) {
  CoverScratch scratch;
  TernaryMatch wide;  // full wildcard
  std::vector<TernaryMatch> halves;
  for (uint32_t i = 0; i < 2; ++i) {
    TernaryMatch h;
    h.set_prefix(FieldId::kDstIp, i << 31, 1);
    halves.push_back(h);
  }
  // Same query twice through one scratch: identical answers, no stale state.
  EXPECT_EQ(try_cover(wide, halves, scratch), CoverResult::kCovered);
  EXPECT_EQ(try_cover(wide, halves, scratch), CoverResult::kCovered);
  // A not-covered query right after a covered one.
  std::vector<TernaryMatch> lone{halves[0]};
  EXPECT_EQ(try_cover(wide, lone, scratch), CoverResult::kNotCovered);
  EXPECT_EQ(try_cover(wide, halves, scratch), CoverResult::kCovered);
}

TEST(CoverKernel, TinyFragmentLimitOverflows) {
  TernaryMatch wide;  // full wildcard: needs fragmenting across all 8 pieces
  std::vector<TernaryMatch> cover;
  for (uint32_t i = 0; i < 8; ++i) {
    TernaryMatch p;
    p.set_prefix(FieldId::kDstIp, i << 29, 3);
    cover.push_back(p);
  }
  CoverScratch scratch;
  EXPECT_EQ(try_cover(wide, cover, scratch, /*fragment_limit=*/2),
            CoverResult::kOverflow);
  EXPECT_EQ(try_cover(wide, cover, scratch), CoverResult::kCovered);
  EXPECT_THROW(flowspace::is_covered_by(wide, cover, /*fragment_limit=*/2),
               std::runtime_error);
  EXPECT_TRUE(flowspace::is_covered_by(wide, cover));
}

class RuleIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuleIndexProperty, FindOverlappingMatchesLinearScan) {
  Rng rng(GetParam());
  RuleIndex index;
  std::vector<std::pair<RuleId, TernaryMatch>> entries;
  for (RuleId id = 1; id <= 200; ++id) {
    const TernaryMatch m = testutil::random_match(rng);
    index.insert(id, m);
    entries.emplace_back(id, m);
  }
  for (int q = 0; q < 100; ++q) {
    const TernaryMatch query = testutil::random_match(rng);
    std::vector<RuleId> got = index.find_overlapping(query);
    std::vector<RuleId> want;
    for (const auto& [id, m] : entries) {
      if (m.overlaps(query)) want.push_back(id);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_P(RuleIndexProperty, EraseKeepsBucketStorageTight) {
  Rng rng(GetParam() ^ 0x1d);
  RuleIndex index;
  std::vector<RuleId> live;
  for (RuleId id = 1; id <= 100; ++id) {
    index.insert(id, testutil::random_match(rng));
    live.push_back(id);
  }
  // approx_size() recomputes from bucket storage; erase() must prune emptied
  // buckets so the two never drift apart.
  while (!live.empty()) {
    const size_t victim = rng.next_below(live.size());
    index.erase(live[victim]);
    live.erase(live.begin() + static_cast<long>(victim));
    EXPECT_EQ(index.approx_size(), index.size());
    EXPECT_EQ(index.size(), live.size());
  }
  const RuleIndex::Stats empty_stats = index.stats();
  EXPECT_EQ(empty_stats.entries, 0u);
  EXPECT_EQ(empty_stats.buckets, 0u);
  EXPECT_EQ(empty_stats.largest_bucket, 0u);
}

TEST(RuleIndexStats, CountsBucketsAndEntries) {
  RuleIndex index;
  TernaryMatch tcp;
  tcp.set_exact(FieldId::kIpProto, 6);
  TernaryMatch udp;
  udp.set_exact(FieldId::kIpProto, 17);
  index.insert(1, tcp);
  index.insert(2, tcp);
  index.insert(3, udp);
  const RuleIndex::Stats s = index.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.buckets, 2u);
  EXPECT_EQ(s.largest_bucket, 2u);
  EXPECT_EQ(index.approx_size(), 3u);

  index.erase(1);
  index.erase(2);
  EXPECT_EQ(index.stats().buckets, 1u);  // tcp bucket pruned
  EXPECT_EQ(index.approx_size(), index.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinDagBuilders,
                         ::testing::Values(1u, 0xbeefu, 0x5eedu));
INSTANTIATE_TEST_SUITE_P(Seeds, CoverKernel, ::testing::Values(7u, 0xabcu));
INSTANTIATE_TEST_SUITE_P(Seeds, RuleIndexProperty,
                         ::testing::Values(11u, 0xf00du));

}  // namespace
}  // namespace ruletris
