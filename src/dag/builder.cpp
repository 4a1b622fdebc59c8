#include "dag/builder.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <unordered_map>

#include "flowspace/rule_index.h"
#include "util/thread_pool.h"

namespace ruletris::dag {

using flowspace::CoverResult;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::RuleIndex;
using flowspace::TernaryMatch;

namespace {

size_t g_default_build_threads = 0;

}  // namespace

void set_default_build_threads(size_t n) { g_default_build_threads = n; }
size_t default_build_threads() { return g_default_build_threads; }

void row_direct_dependencies(const TernaryMatch& m,
                             const std::vector<const TernaryMatch*>& cands,
                             const MinDagBuildOptions& opts,
                             MinDagRowScratch& scratch,
                             std::vector<size_t>& out) {
  out.clear();
  if (cands.empty()) return;

  // Residue walk, candidates in descending match order: before candidate c
  // is tested, `residue` equals m minus every rule between c and m's row
  // (restricted to rules overlapping m — the others subtract nothing). The
  // direct-dependency test is then a plain overlap scan, and one subtraction
  // chain serves the entire row instead of one cover test per pair.
  auto& residue = scratch.residue_;
  auto& next = scratch.next_;
  residue.clear();
  residue.push_back(m);
  for (size_t c = cands.size(); c-- > 0;) {
    const TernaryMatch& cand = *cands[c];
    bool hit = false;
    for (const TernaryMatch& f : residue) {
      if (f.overlaps(cand)) {
        hit = true;
        break;
      }
    }
    if (!hit) continue;
    out.push_back(c);
    next.clear();
    for (const TernaryMatch& f : residue) {
      if (f.overlaps(cand)) {
        f.subtract_into(cand, next);  // appends nothing when cand subsumes f
      } else {
        next.push_back(f);
      }
    }
    residue.swap(next);
    if (residue.empty()) return;

    if (residue.size() > opts.residue_soft_limit && c > 0) {
      // Broad rules (default routes) fragment against thousands of specific
      // rules above them; per-pair cover tests stay cheap there because each
      // pair's between-set is small after overlap filtering. The between-set
      // is pulled from an index over the later candidates — grown as the
      // walk descends — so a row with k candidates costs k bucket queries,
      // not k^2 pairwise overlap tests.
      auto& later = scratch.later_;
      later.clear();
      for (size_t k = c; k < cands.size(); ++k) {
        later.insert(static_cast<RuleId>(k), *cands[k]);
      }
      for (size_t c2 = c; c2-- > 0;) {
        const auto overlap = m.intersect(*cands[c2]);
        if (!overlap) continue;  // candidates overlap m by contract
        auto& keyed = scratch.between_keyed_;
        keyed.clear();
        later.for_each_overlapping(
            *overlap, [&](RuleId k, const TernaryMatch& match) {
              keyed.emplace_back(k, &match);
            });
        // Most-general covers first: they erase whole fragment families at
        // once, keeping the subtraction shallow. Ties break on candidate
        // position so the cover order — and with it any overflow verdict —
        // is identical regardless of index iteration order (serial and
        // parallel builds must stay bit-identical).
        std::sort(keyed.begin(), keyed.end(),
                  [](const auto& a, const auto& b) {
                    const uint32_t ba = a.second->specified_bits();
                    const uint32_t bb = b.second->specified_bits();
                    if (ba != bb) return ba < bb;
                    return a.first < b.first;
                  });
        auto& between = scratch.between_;
        between.clear();
        for (const auto& [k, match] : keyed) between.push_back(*match);
        const CoverResult r = flowspace::try_cover(
            *overlap, {between.data(), between.size()}, scratch.cover_,
            opts.fragment_limit);
        if (r != CoverResult::kCovered) out.push_back(c2);  // overflow: keep edge
        if (r == CoverResult::kOverflow) ++scratch.cover_overflows_;
        later.insert(static_cast<RuleId>(c2), *cands[c2]);
      }
      return;
    }
  }
}

namespace {

/// Per-thread working set for the indexed build.
struct RowContext {
  std::vector<size_t> cand_pos;
  std::vector<const TernaryMatch*> cand_matches;
  std::vector<size_t> edges;
  MinDagRowScratch scratch;
};

/// Direct-dependency target positions of row `i`, appended to `targets` in a
/// deterministic order (identical for serial and parallel builds).
void compute_row(const FlowTable& table, const RuleIndex& index, size_t i,
                 const MinDagBuildOptions& opts, RowContext& ctx,
                 std::vector<size_t>& targets) {
  const auto& rules = table.rules();
  ctx.cand_pos.clear();
  index.for_each_overlapping(rules[i].match,
                             [&](RuleId id, const TernaryMatch&) {
                               const size_t p = table.position(id);
                               if (p < i) ctx.cand_pos.push_back(p);
                             });
  std::sort(ctx.cand_pos.begin(), ctx.cand_pos.end());
  ctx.cand_matches.clear();
  for (size_t p : ctx.cand_pos) ctx.cand_matches.push_back(&rules[p].match);
  row_direct_dependencies(rules[i].match, ctx.cand_matches, opts, ctx.scratch,
                          ctx.edges);
  for (size_t e : ctx.edges) targets.push_back(ctx.cand_pos[e]);
}

/// Direct small-table path: the brute-force pair/between structure, but with
/// the arena-backed try_cover kernel and the repository's uniform
/// conservative overflow policy (keep the edge). No index, no residue walk —
/// below kSmallTableDirectCutoff their setup costs more than they save.
DependencyGraph build_direct(const FlowTable& table, const MinDagBuildOptions& opts,
                             MinDagBuildStats& stats) {
  DependencyGraph graph;
  const auto& rules = table.rules();
  for (const Rule& r : rules) graph.add_vertex(r.id);

  flowspace::CoverScratch cover;
  std::vector<TernaryMatch> between;
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = 0; j + 1 <= i; ++j) {
      auto overlap = rules[i].match.intersect(rules[j].match);
      if (!overlap) continue;
      between.clear();
      for (size_t k = j + 1; k < i; ++k) {
        if (rules[k].match.overlaps(*overlap)) between.push_back(rules[k].match);
      }
      const CoverResult r = flowspace::try_cover(
          *overlap, {between.data(), between.size()}, cover, opts.fragment_limit);
      if (r != CoverResult::kCovered) {  // overflow keeps a conservative edge
        graph.add_edge(rules[i].id, rules[j].id);
      }
      if (r == CoverResult::kOverflow) ++stats.cover_overflows;
    }
  }
  return graph;
}

DependencyGraph build_indexed(const FlowTable& table, const MinDagBuildOptions& opts,
                              MinDagBuildStats* stats) {
  MinDagBuildStats local;
  MinDagBuildStats& out = stats != nullptr ? *stats : local;
  out = MinDagBuildStats{};
  const auto& rules = table.rules();  // descending priority == match order
  const size_t n = rules.size();
  if (uses_direct_path(n, opts)) return build_direct(table, opts, out);

  DependencyGraph graph;
  for (const Rule& r : rules) graph.add_vertex(r.id);
  if (n < 2) return graph;

  RuleIndex index;
  for (const Rule& r : rules) index.insert(r.id, r.match);

  const bool parallel = opts.n_threads > 1 && n >= opts.parallel_cutoff;
  std::vector<std::vector<size_t>> row_targets(n);
  // One context per worker (one in total when serial); each counts its
  // rows' overflow fallbacks in its own scratch, summed after the join.
  std::deque<RowContext> contexts;
  if (!parallel) {
    RowContext& ctx = contexts.emplace_back();
    for (size_t i = 1; i < n; ++i) {
      compute_row(table, index, i, opts, ctx, row_targets[i]);
    }
  } else {
    // Rows are independent given the (read-only) table and index: workers
    // claim chunks off an atomic cursor with per-thread arenas, and results
    // land in per-row slots so the merged edge set is order-independent.
    util::ChunkCursor cursor(1, n, util::ChunkCursor::suggest_chunk(n, opts.n_threads));
    util::ThreadPool pool(opts.n_threads);
    util::run_on_workers(pool, [&] {
      return [&, &ctx = contexts.emplace_back()] {
        size_t begin, end;
        while (cursor.next(begin, end)) {
          for (size_t i = begin; i < end; ++i) {
            compute_row(table, index, i, opts, ctx, row_targets[i]);
          }
        }
      };
    });
  }

  for (size_t i = 1; i < n; ++i) {
    for (size_t t : row_targets[i]) graph.add_edge(rules[i].id, rules[t].id);
  }
  for (const RowContext& ctx : contexts) out.cover_overflows += ctx.scratch.cover_overflows();
  return graph;
}

}  // namespace

bool uses_direct_path(size_t table_size, const MinDagBuildOptions& opts) {
  return table_size < opts.direct_cutoff;
}

DependencyGraph build_min_dag(const FlowTable& table) {
  return build_indexed(table, MinDagBuildOptions{}, nullptr);
}

DependencyGraph build_min_dag(const FlowTable& table, const MinDagBuildOptions& opts,
                              MinDagBuildStats* stats) {
  MinDagBuildOptions serial = opts;
  serial.n_threads = 1;
  return build_indexed(table, serial, stats);
}

DependencyGraph build_min_dag_parallel(const FlowTable& table, size_t n_threads) {
  MinDagBuildOptions opts;
  opts.n_threads = n_threads;
  return build_indexed(table, opts, nullptr);
}

DependencyGraph build_min_dag_parallel(const FlowTable& table,
                                       const MinDagBuildOptions& opts,
                                       MinDagBuildStats* stats) {
  return build_indexed(table, opts, stats);
}

DependencyGraph build_min_dag_brute(const FlowTable& table) {
  DependencyGraph graph;
  const auto& rules = table.rules();
  for (const Rule& r : rules) graph.add_vertex(r.id);

  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = 0; j + 1 <= i; ++j) {
      // Candidate edge rules[i] -> rules[j] (j is matched first).
      auto overlap = rules[i].match.intersect(rules[j].match);
      if (!overlap) continue;
      // The dependency is direct iff part of the overlap survives all rules
      // strictly between j and i.
      std::vector<TernaryMatch> between;
      between.reserve(i - j);
      for (size_t k = j + 1; k < i; ++k) between.push_back(rules[k].match);
      if (!flowspace::is_covered_by(*overlap, between)) {
        graph.add_edge(rules[i].id, rules[j].id);
      }
    }
  }
  return graph;
}

bool order_respects_dag(const std::vector<Rule>& rules, const DependencyGraph& graph) {
  std::unordered_map<RuleId, size_t> pos;
  pos.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) pos[rules[i].id] = i;
  for (const auto& [u, v] : graph.edges()) {
    auto pu = pos.find(u);
    auto pv = pos.find(v);
    if (pu == pos.end() || pv == pos.end()) return false;
    if (pv->second >= pu->second) return false;  // v must be matched first
  }
  return true;
}

}  // namespace ruletris::dag
