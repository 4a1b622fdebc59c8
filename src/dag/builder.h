// Minimum-DAG extraction from a prioritized flow table.
//
// This is the operation the paper calls "prohibitively time consuming" for
// the update path (Sec. IV). RuleTris still needs it in two places:
//  * bulk-loading a MinDagMaintainer: a leaf table populated by a
//    dependency-unaware application (Sec. III-B: "RuleTris can extract the
//    DAGs from the prioritized flow tables"), a composed node's visible
//    level after a full rebuild, and tcam::eliminate_redundancy's survivors;
//  * as the correctness oracle for the compositional construction.
//
// Definition of the minimum DAG (CacheFlow-style direct dependency, which
// matches every example in the paper): edge u -> v, with v earlier in match
// order, exists iff some packet matches both u and v and is not matched by
// any rule strictly between them.
//
// Every optimized entry point adapts onto one core over an ordered
// (RuleId, TernaryMatch) sequence, build_min_dag_ordered:
//  * indexed: each rule only tests the rules it can actually overlap. A
//    static index built once per build keys the rows by dst_ip prefix and
//    answers position-window queries (a row's candidates are the overlapping
//    rows above it; a fallback pair's between-set is the overlapping rows
//    strictly between the two), so a query costs about its output, not a
//    bucket scan. The per-row residue walk skips a candidate contained in a
//    later one it has passed, which can neither hit nor subtract, and reuses
//    arena buffers, so the hot loop is allocation-free;
//  * parallel: rows are independent given the input, so they are sharded
//    across a thread pool with per-thread arenas. The edges are merged in
//    row order and are bit-identical to the serial build.
// Every path collects its edges in row order (ascending by the tail's
// input position, then the head's) and bulk-loads the graph once, so every
// successors() and predecessors() list ascends by input position: the
// adjacency order CacheFlow walks, pinned by tests/dag_golden_test.
// build_min_dag / build_min_dag_parallel are its FlowTable adapters;
// build_min_dag_brute — the literal O(n^3) all-pairs definition — stays
// apart as the oracle and the bench baseline.
//
// Fragment-limit policy (see flowspace::kDefaultFragmentLimit): when a cover
// test overflows its fragment budget, the builder keeps a conservative edge.
// A spurious edge is a harmless extra ordering constraint; a missing edge
// would be unsound. (The pre-arena builder threw instead; the policy is now
// explicit and uniform with MinDagMaintainer.) Each such edge is counted in
// MinDagBuildStats, identically for serial and parallel builds.
#pragma once

#include "dag/dependency_graph.h"
#include "flowspace/rule.h"
#include "flowspace/ternary.h"

namespace ruletris::dag {

/// Below this table size the direct per-pair build beats the indexed one:
/// constructing the index and walking residues costs more than the handful
/// of pair tests it would prune (the extraction bench once showed the
/// indexed build ~3.5x *slower* than brute force at 250 rules). The
/// crossover sits between 250 and 500 rules on the router profile.
inline constexpr size_t kSmallTableDirectCutoff = 384;

/// Tuning knobs for the indexed builder. Defaults are right for every
/// workload in the repository; tests lower the limits to exercise the
/// fallback paths.
struct MinDagBuildOptions {
  /// Fragment budget per cover test; overflow keeps a conservative edge.
  size_t fragment_limit = flowspace::kDefaultFragmentLimit;
  /// When a row's residue fragments past this, the row switches from the
  /// residue walk to per-pair cover tests (broad rules like default routes
  /// fragment against thousands of specific rules; per-pair stays cheap).
  size_t residue_soft_limit = 2048;
  /// Worker threads for build_min_dag_parallel; <= 1 builds serially.
  size_t n_threads = 1;
  /// Tables smaller than this build serially even when n_threads > 1. Set
  /// from the measured 4-thread crossover: monitor, firewall and composed
  /// visible tables break even at ~600-800 rows and gain 1.3-2.4x at
  /// 1,000; router tables, whose build is mostly the serial index and graph
  /// assembly, read 0.8-1.0x at every size (EXPERIMENTS.md).
  size_t parallel_cutoff = 1024;
  /// Tables smaller than this skip the index entirely and use the direct
  /// per-pair path (same edges, same conservative overflow policy — applied
  /// before the thread check, so serial and parallel builds stay
  /// bit-identical below the cutoff). 0 disables the shortcut.
  size_t direct_cutoff = kSmallTableDirectCutoff;
};

/// Fallback accounting of one bulk build.
struct MinDagBuildStats {
  /// Cover tests that overflowed the fragment budget; each kept a
  /// conservative edge.
  size_t cover_overflows = 0;
};

/// Build input: one (id, match) per rule, in matched-first order.
using OrderedRules =
    std::vector<std::pair<flowspace::RuleId, flowspace::TernaryMatch>>;

/// The build core: the minimum DAG of `rules` (matched-first order). Shards
/// rows across opts.n_threads workers unless the input is under the
/// parallel or direct cutoff; the edge set does not depend on the thread
/// count. A non-null `stats` receives the build's fallback counts.
DependencyGraph build_min_dag_ordered(const OrderedRules& rules,
                                      const MinDagBuildOptions& opts,
                                      MinDagBuildStats* stats = nullptr);

/// Builds the minimum DAG of `table` with index pruning and arena reuse.
/// A non-null `stats` receives the build's fallback counts.
DependencyGraph build_min_dag(const flowspace::FlowTable& table);
DependencyGraph build_min_dag(const flowspace::FlowTable& table,
                              const MinDagBuildOptions& opts,
                              MinDagBuildStats* stats = nullptr);

/// Parallel build: shards rows across `n_threads` workers (per-thread
/// arenas), falling back to the serial path for small tables or n_threads
/// <= 1. The resulting edge set is identical to build_min_dag's.
DependencyGraph build_min_dag_parallel(const flowspace::FlowTable& table,
                                       size_t n_threads);
DependencyGraph build_min_dag_parallel(const flowspace::FlowTable& table,
                                       const MinDagBuildOptions& opts,
                                       MinDagBuildStats* stats = nullptr);

/// The literal O(n^2)-pairs brute force with full between-set scans: the
/// correctness oracle and the bench baseline the optimized builders are
/// measured against.
DependencyGraph build_min_dag_brute(const flowspace::FlowTable& table);

/// True iff `build_min_dag(table, opts)` would take the direct small-table
/// path instead of constructing the index (bench/reporting).
bool uses_direct_path(size_t table_size, const MinDagBuildOptions& opts);

/// True iff a build of `table_size` rows with `opts` shards its rows across
/// opts.n_threads workers (tests and benches assert that 1-vs-N thread
/// comparisons really run the threaded row loop).
bool uses_parallel_path(size_t table_size, const MinDagBuildOptions& opts);

/// Process-wide thread count for every bulk minimum-DAG build a compile
/// performs: a root LeafNode built from a FlowTable and a root ComposedNode's
/// visible table after a full compile (children build none). 0 or 1 means
/// serial; the count is not clamped to the machine's cores, and the edges do
/// not depend on it. The one thread knob of a full compile: set from
/// tools/bench flags (--dag-threads); not read concurrently with writes.
void set_default_build_threads(size_t n);
size_t default_build_threads();

/// True iff every edge constraint of `graph` is satisfied by the order of
/// `rules` (dependencies appear earlier). Used to validate layouts.
bool order_respects_dag(const std::vector<flowspace::Rule>& rules,
                        const DependencyGraph& graph);

}  // namespace ruletris::dag
