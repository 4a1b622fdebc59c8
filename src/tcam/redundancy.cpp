#include "tcam/redundancy.h"

#include <stdexcept>
#include <unordered_map>

#include <algorithm>

#include "dag/min_dag_maintainer.h"

namespace ruletris::tcam {

using dag::DependencyGraph;
using dag::MinDagMaintainer;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;

namespace {

/// Cover test that degrades conservatively: only covers overlapping `m` are
/// considered, most-general first (they collapse fragments fastest), and a
/// fragment-budget overflow counts as "not covered" — keeping a possibly-
/// redundant rule never changes semantics. Scratch buffers are reused across
/// the whole elimination scan.
struct CoverTester {
  std::vector<TernaryMatch> relevant;
  flowspace::CoverScratch scratch;

  bool covered(const TernaryMatch& m, const std::vector<TernaryMatch>& covers) {
    relevant.clear();
    for (const TernaryMatch& c : covers) {
      if (c.overlaps(m)) relevant.push_back(c);
    }
    std::sort(relevant.begin(), relevant.end(),
              [](const TernaryMatch& a, const TernaryMatch& b) {
                return a.specified_bits() < b.specified_bits();
              });
    return flowspace::try_cover(m, {relevant.data(), relevant.size()}, scratch) ==
           flowspace::CoverResult::kCovered;
  }
};

}  // namespace

EliminationResult eliminate_redundancy(const std::vector<Rule>& rules,
                                       const DependencyGraph& graph) {
  EliminationResult result;

  std::unordered_map<RuleId, const Rule*> by_id;
  for (const Rule& r : rules) by_id[r.id] = &r;

  // Scan order: the DAG's matched-first topological order restricted to the
  // given rules.
  std::vector<RuleId> scan;
  DependencyGraph padded = graph;
  for (const Rule& r : rules) padded.add_vertex(r.id);
  for (RuleId id : padded.topo_order_high_to_low()) {
    if (by_id.count(id)) scan.push_back(id);
  }

  // The surviving DAG is maintained exactly: every removal's patch edges are
  // recomputed with the cover test, so the result graph is the minimum DAG
  // of the kept rules (not just an overlap-verified approximation).
  MinDagMaintainer survivors;
  {
    std::vector<std::pair<RuleId, TernaryMatch>> ordered;
    ordered.reserve(scan.size());
    for (RuleId id : scan) ordered.emplace_back(id, by_id.at(id)->match);
    survivors.bulk_load(ordered);
  }

  CoverTester tester;
  std::vector<TernaryMatch> accumulated;  // matches of kept rules so far
  for (RuleId id : scan) {
    const Rule& r = *by_id.at(id);

    // Obscured: covered by the union of everything kept above (Sec. V-B).
    if (tester.covered(r.match, accumulated)) {
      result.obscured.push_back(id);
      survivors.remove(id);
      continue;
    }

    // Floating: every packet of r falls through to direct predecessors that
    // all carry identical actions, so r itself adds nothing. (The paper's
    // single-predecessor "more general match, same actions" case is the
    // common instance; the cover test generalizes it soundly.)
    const auto& preds = survivors.graph().predecessors(id);
    if (!preds.empty()) {
      bool all_same_actions = true;
      std::vector<TernaryMatch> pred_matches;
      pred_matches.reserve(preds.size());
      for (RuleId p : preds) {
        const Rule& pr = *by_id.at(p);
        if (pr.actions != r.actions) {
          all_same_actions = false;
          break;
        }
        pred_matches.push_back(pr.match);
      }
      if (all_same_actions && tester.covered(r.match, pred_matches)) {
        result.floating.push_back(id);
        survivors.remove(id);
        continue;
      }
    }

    accumulated.push_back(r.match);
    result.kept.push_back(r);
  }

  result.graph = survivors.graph();
  return result;
}

}  // namespace ruletris::tcam
