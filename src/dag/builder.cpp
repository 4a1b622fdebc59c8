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

/// Reusable per-row scratch: residue fragment arena, per-pair cover arena,
/// and candidate storage. One instance per thread.
struct RowScratch {
  std::vector<TernaryMatch> residue;
  std::vector<TernaryMatch> next;
  std::vector<TernaryMatch> between;
  std::vector<std::pair<RuleId, const TernaryMatch*>> between_keyed;
  flowspace::CoverScratch cover;
  // Fallback-path index over later candidates, so each pair's between-set is
  // a bucket query instead of a scan over every remaining candidate (broad
  // rows otherwise cost O(candidates^2) overlap tests).
  RuleIndex later;
  // Cover-test overflows over every row this scratch has served. Workers
  // count into their own scratch; the build sums them after the join.
  size_t cover_overflows = 0;
};

/// Per-row kernel: computes the direct dependencies of a rule with match `m`
/// on the rules above it. `cands` holds the matches of the candidate rules
/// in match order (ascending position) and must contain every rule above
/// `m`'s row that overlaps `m` — with an overlap index that is exactly the
/// pruned candidate list, since any rule covering part of an overlap with
/// `m` itself overlaps `m`. Appends to `out` the indexes into `cands` that
/// are direct dependencies, in descending candidate order.
void row_direct_dependencies(const TernaryMatch& m,
                             const std::vector<const TernaryMatch*>& cands,
                             const MinDagBuildOptions& opts,
                             RowScratch& scratch,
                             std::vector<size_t>& out) {
  out.clear();
  if (cands.empty()) return;

  // Residue walk, candidates in descending match order: before candidate c
  // is tested, `residue` equals m minus every rule between c and m's row
  // (restricted to rules overlapping m — the others subtract nothing). The
  // direct-dependency test is then a plain overlap scan, and one subtraction
  // chain serves the entire row instead of one cover test per pair.
  auto& residue = scratch.residue;
  auto& next = scratch.next;
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
      auto& later = scratch.later;
      later.clear();
      for (size_t k = c; k < cands.size(); ++k) {
        later.insert(static_cast<RuleId>(k), *cands[k]);
      }
      for (size_t c2 = c; c2-- > 0;) {
        const auto overlap = m.intersect(*cands[c2]);
        if (!overlap) continue;  // candidates overlap m by contract
        auto& keyed = scratch.between_keyed;
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
        auto& between = scratch.between;
        between.clear();
        for (const auto& [k, match] : keyed) between.push_back(*match);
        const CoverResult r = flowspace::try_cover(
            *overlap, {between.data(), between.size()}, scratch.cover,
            opts.fragment_limit);
        if (r != CoverResult::kCovered) out.push_back(c2);  // overflow: keep edge
        if (r == CoverResult::kOverflow) ++scratch.cover_overflows;
        later.insert(static_cast<RuleId>(c2), *cands[c2]);
      }
      return;
    }
  }
}

/// Position-indexed view of an ordered build input: row i is rule ids[i]
/// with match *matches[i], matched-first. Both public inputs (FlowTable and
/// OrderedRules) adapt onto it without copying a match.
struct Rows {
  std::vector<RuleId> ids;
  std::vector<const TernaryMatch*> matches;

  size_t size() const { return ids.size(); }
};

Rows rows_of(const FlowTable& table) {
  Rows rows;
  rows.ids.reserve(table.size());
  rows.matches.reserve(table.size());
  for (const Rule& r : table.rules()) {  // descending priority == match order
    rows.ids.push_back(r.id);
    rows.matches.push_back(&r.match);
  }
  return rows;
}

Rows rows_of(const OrderedRules& rules) {
  Rows rows;
  rows.ids.reserve(rules.size());
  rows.matches.reserve(rules.size());
  for (const auto& [id, match] : rules) {
    rows.ids.push_back(id);
    rows.matches.push_back(&match);
  }
  return rows;
}

/// Per-thread working set for the indexed build.
struct RowContext {
  std::vector<size_t> cand_pos;
  std::vector<const TernaryMatch*> cand_matches;
  std::vector<size_t> edges;
  RowScratch scratch;
};

/// Direct-dependency target positions of row `i`, appended to `targets` in a
/// deterministic order (identical for serial and parallel builds). `index`
/// holds every row keyed by its position.
void compute_row(const Rows& rows, const RuleIndex& index, size_t i,
                 const MinDagBuildOptions& opts, RowContext& ctx,
                 std::vector<size_t>& targets) {
  ctx.cand_pos.clear();
  index.for_each_overlapping(*rows.matches[i], [&](RuleId p, const TernaryMatch&) {
    if (p < i) ctx.cand_pos.push_back(p);
  });
  std::sort(ctx.cand_pos.begin(), ctx.cand_pos.end());
  ctx.cand_matches.clear();
  for (size_t p : ctx.cand_pos) ctx.cand_matches.push_back(rows.matches[p]);
  row_direct_dependencies(*rows.matches[i], ctx.cand_matches, opts, ctx.scratch,
                          ctx.edges);
  for (size_t e : ctx.edges) targets.push_back(ctx.cand_pos[e]);
}

/// Direct small-table path: the brute-force pair/between structure, but with
/// the arena-backed try_cover kernel and the repository's uniform
/// conservative overflow policy (keep the edge). No index, no residue walk —
/// below kSmallTableDirectCutoff their setup costs more than they save.
DependencyGraph build_direct(const Rows& rows, const MinDagBuildOptions& opts,
                             MinDagBuildStats& stats) {
  DependencyGraph graph;
  for (RuleId id : rows.ids) graph.add_vertex(id);

  flowspace::CoverScratch cover;
  std::vector<TernaryMatch> between;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j + 1 <= i; ++j) {
      auto overlap = rows.matches[i]->intersect(*rows.matches[j]);
      if (!overlap) continue;
      between.clear();
      for (size_t k = j + 1; k < i; ++k) {
        if (rows.matches[k]->overlaps(*overlap)) between.push_back(*rows.matches[k]);
      }
      const CoverResult r = flowspace::try_cover(
          *overlap, {between.data(), between.size()}, cover, opts.fragment_limit);
      if (r != CoverResult::kCovered) {  // overflow keeps a conservative edge
        graph.add_edge(rows.ids[i], rows.ids[j]);
      }
      if (r == CoverResult::kOverflow) ++stats.cover_overflows;
    }
  }
  return graph;
}

/// The one row loop every optimized entry point shares.
DependencyGraph build_rows(const Rows& rows, const MinDagBuildOptions& opts,
                           MinDagBuildStats* stats) {
  MinDagBuildStats local;
  MinDagBuildStats& out = stats != nullptr ? *stats : local;
  out = MinDagBuildStats{};
  const size_t n = rows.size();
  if (uses_direct_path(n, opts)) return build_direct(rows, opts, out);

  DependencyGraph graph;
  for (RuleId id : rows.ids) graph.add_vertex(id);
  if (n < 2) return graph;

  RuleIndex index;
  for (size_t i = 0; i < n; ++i) index.insert(static_cast<RuleId>(i), *rows.matches[i]);

  const bool parallel = opts.n_threads > 1 && n >= opts.parallel_cutoff;
  std::vector<std::vector<size_t>> row_targets(n);
  // One context per worker (one in total when serial); each counts its
  // rows' overflow fallbacks in its own scratch, summed after the join.
  std::deque<RowContext> contexts;
  if (!parallel) {
    RowContext& ctx = contexts.emplace_back();
    for (size_t i = 1; i < n; ++i) {
      compute_row(rows, index, i, opts, ctx, row_targets[i]);
    }
  } else {
    // Rows are independent given the (read-only) input and index: workers
    // claim chunks off an atomic cursor with per-thread arenas, and results
    // land in per-row slots so the merged edge set is order-independent.
    util::ChunkCursor cursor(1, n, util::ChunkCursor::suggest_chunk(n, opts.n_threads));
    util::ThreadPool pool(opts.n_threads);
    util::run_on_workers(pool, [&] {
      return [&, &ctx = contexts.emplace_back()] {
        size_t begin, end;
        while (cursor.next(begin, end)) {
          for (size_t i = begin; i < end; ++i) {
            compute_row(rows, index, i, opts, ctx, row_targets[i]);
          }
        }
      };
    });
  }

  for (size_t i = 1; i < n; ++i) {
    for (size_t t : row_targets[i]) graph.add_edge(rows.ids[i], rows.ids[t]);
  }
  for (const RowContext& ctx : contexts) out.cover_overflows += ctx.scratch.cover_overflows;
  return graph;
}

}  // namespace

void set_default_build_threads(size_t n) { g_default_build_threads = n; }
size_t default_build_threads() { return g_default_build_threads; }

bool uses_direct_path(size_t table_size, const MinDagBuildOptions& opts) {
  return table_size < opts.direct_cutoff;
}

DependencyGraph build_min_dag_ordered(const OrderedRules& rules,
                                      const MinDagBuildOptions& opts,
                                      MinDagBuildStats* stats) {
  return build_rows(rows_of(rules), opts, stats);
}

DependencyGraph build_min_dag(const FlowTable& table) {
  return build_rows(rows_of(table), MinDagBuildOptions{}, nullptr);
}

DependencyGraph build_min_dag(const FlowTable& table, const MinDagBuildOptions& opts,
                              MinDagBuildStats* stats) {
  MinDagBuildOptions serial = opts;
  serial.n_threads = 1;
  return build_rows(rows_of(table), serial, stats);
}

DependencyGraph build_min_dag_parallel(const FlowTable& table, size_t n_threads) {
  MinDagBuildOptions opts;
  opts.n_threads = n_threads;
  return build_rows(rows_of(table), opts, nullptr);
}

DependencyGraph build_min_dag_parallel(const FlowTable& table,
                                       const MinDagBuildOptions& opts,
                                       MinDagBuildStats* stats) {
  return build_rows(rows_of(table), opts, stats);
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
