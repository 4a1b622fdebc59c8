#include "dag/builder.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <unordered_map>

#include "util/thread_pool.h"

namespace ruletris::dag {

using flowspace::CoverResult;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;

namespace {

size_t g_default_build_threads = 0;

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

/// Static overlap index over one build's rows, answering position-window
/// queries.
///
/// A row whose dst_ip mask is a prefix is keyed by that prefix. The distinct
/// prefixes, sorted by (value, length), are the index's nodes: every
/// prefix's subtree is then one contiguous run of nodes, and each node keeps
/// its nearest present ancestor. A query visits the ancestors of its own dst
/// prefix, then that prefix's subtree. A query whose dst mask is not a
/// prefix uses the prefix of its leading specified bits: a prefix row can
/// only overlap it there. Rows whose dst mask is not a prefix sit in one
/// scan list. The dst prefix only prunes; every visited row is confirmed
/// with TernaryMatch::overlaps. A node holds its rows in ascending
/// position, so a query's window [lo, hi) bounds its ancestor and scan-list
/// visits by binary search. Storage is a few words per row and per node.
class RowIndex {
 public:
  explicit RowIndex(const Rows& rows);

  /// Calls fn(p) for every row p in [lo, hi) whose match overlaps `q`, in no
  /// particular order.
  template <typename Fn>
  void for_each_overlapping(const TernaryMatch& q, size_t lo, size_t hi, Fn&& fn) const {
    visit(span_of(q), q, lo, hi, fn);
  }

  /// for_each_overlapping on row i's own match.
  template <typename Fn>
  void for_each_overlapping_row(size_t i, size_t lo, size_t hi, Fn&& fn) const {
    const TernaryMatch& q = *rows_.matches[i];
    const int32_t k = node_of_[i];
    visit(k == kNone ? span_of(q) : Span{parent_[k], static_cast<uint32_t>(k),
                                         subtree_end_[k], true},
          q, lo, hi, fn);
  }

  /// Position of the first row after `p` whose match contains row p's
  /// match, or the row count when no later row does.
  size_t next_container(size_t p) const { return next_container_[p]; }

 private:
  static constexpr int32_t kNone = -1;

  /// Where a dst prefix sits among the nodes: its subtree is the node run
  /// [first, last), `self` says whether node `first` is the prefix itself,
  /// and `anc` is its deepest proper ancestor node (kNone if none).
  struct Span {
    int32_t anc;
    uint32_t first;
    uint32_t last;
    bool self;
  };

  static uint32_t prefix_mask(uint32_t len) { return len == 0 ? 0u : ~0u << (32 - len); }
  static uint64_t key(uint32_t value, uint32_t len) { return (uint64_t{value} << 6) | len; }
  /// True iff the prefix keyed `outer` contains the prefix keyed `inner`.
  static bool contains(uint64_t outer, uint64_t inner) {
    const uint32_t len = static_cast<uint32_t>(outer & 63);
    return len <= (inner & 63) &&
           (static_cast<uint32_t>(inner >> 6) & prefix_mask(len)) ==
               static_cast<uint32_t>(outer >> 6);
  }

  Span span_of(const TernaryMatch& q) const;
  void compute_next_containers();

  template <typename Fn>
  void visit_window(const uint32_t* begin, const uint32_t* end, const TernaryMatch& q,
                    size_t lo, size_t hi, Fn& fn) const {
    for (const uint32_t* it = std::lower_bound(begin, end, lo); it != end && *it < hi;
         ++it) {
      if (rows_.matches[*it]->overlaps(q)) fn(static_cast<size_t>(*it));
    }
  }

  template <typename Fn>
  void visit(const Span& s, const TernaryMatch& q, size_t lo, size_t hi, Fn& fn) const {
    const uint32_t* pos = pos_.data();
    for (int32_t a = s.anc; a != kNone; a = parent_[a]) {
      visit_window(pos + begin_[a], pos + begin_[a + 1], q, lo, hi, fn);
    }
    // A subtree's rows are sorted per node only, so the window is a filter.
    for (const uint32_t* it = pos + begin_[s.first]; it != pos + begin_[s.last]; ++it) {
      if (*it >= lo && *it < hi && rows_.matches[*it]->overlaps(q)) {
        fn(static_cast<size_t>(*it));
      }
    }
    visit_window(scan_.data(), scan_.data() + scan_.size(), q, lo, hi, fn);
  }

  const Rows& rows_;
  std::vector<uint64_t> keys_;         // node prefixes, ascending
  std::vector<int32_t> parent_;        // nearest ancestor node, or kNone
  std::vector<uint32_t> subtree_end_;  // one past the node's subtree run
  std::vector<uint32_t> begin_;        // node k's rows: pos_[begin_[k], begin_[k + 1])
  std::vector<uint32_t> pos_;          // rows grouped by node, ascending within
  std::vector<int32_t> node_of_;       // row -> node; kNone for scan-list rows
  std::vector<uint32_t> scan_;         // rows with a non-prefix dst mask, ascending
  std::vector<uint32_t> next_container_;
};

RowIndex::RowIndex(const Rows& rows) : rows_(rows), node_of_(rows.size(), kNone) {
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  keyed.reserve(rows.size());
  for (size_t p = 0; p < rows.size(); ++p) {
    const flowspace::FieldTernary& dst = rows.matches[p]->field(FieldId::kDstIp);
    const auto len = static_cast<uint32_t>(std::countl_one(dst.mask));
    if (dst.mask == prefix_mask(len)) {
      keyed.emplace_back(key(dst.value, len), static_cast<uint32_t>(p));
    } else {
      scan_.push_back(static_cast<uint32_t>(p));
    }
  }
  std::sort(keyed.begin(), keyed.end());

  // One sweep in key order: `open` is the chain of nodes containing the
  // current one, so its top is the new node's nearest ancestor, and a node
  // popped off it has just seen its subtree end.
  pos_.reserve(keyed.size());
  std::vector<uint32_t> open;
  for (const auto& [k, p] : keyed) {
    if (keys_.empty() || keys_.back() != k) {
      const auto node = static_cast<uint32_t>(keys_.size());
      while (!open.empty() && !contains(keys_[open.back()], k)) {
        subtree_end_[open.back()] = node;
        open.pop_back();
      }
      keys_.push_back(k);
      parent_.push_back(open.empty() ? kNone : static_cast<int32_t>(open.back()));
      subtree_end_.push_back(0);
      begin_.push_back(static_cast<uint32_t>(pos_.size()));
      open.push_back(node);
    }
    node_of_[p] = static_cast<int32_t>(keys_.size() - 1);
    pos_.push_back(p);
  }
  for (const uint32_t node : open) subtree_end_[node] = static_cast<uint32_t>(keys_.size());
  begin_.push_back(static_cast<uint32_t>(pos_.size()));
  compute_next_containers();
}

RowIndex::Span RowIndex::span_of(const TernaryMatch& q) const {
  const flowspace::FieldTernary& dst = q.field(FieldId::kDstIp);
  const auto len = static_cast<uint32_t>(std::countl_one(dst.mask));
  const uint32_t value = dst.value & prefix_mask(len);
  const uint64_t k = key(value, len);
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), k);
  const uint64_t end = (uint64_t{value} + (uint64_t{1} << (32 - len))) << 6;
  Span s;
  s.first = static_cast<uint32_t>(first - keys_.begin());
  s.last = static_cast<uint32_t>(std::lower_bound(first, keys_.end(), end) - keys_.begin());
  s.self = first != keys_.end() && *first == k;
  if (s.self) {
    s.anc = parent_[s.first];
  } else {
    // Every node between the deepest ancestor and `first` lies in that
    // ancestor's subtree, so the ancestor is on the parent chain of the node
    // just before `first`.
    int32_t a = static_cast<int32_t>(s.first) - 1;
    while (a != kNone && !contains(keys_[a], k)) a = parent_[a];
    s.anc = a;
  }
  return s;
}

void RowIndex::compute_next_containers() {
  const size_t n = rows_.size();
  next_container_.assign(n, static_cast<uint32_t>(n));
  for (size_t p = 0; p < n; ++p) {
    const TernaryMatch& m = *rows_.matches[p];
    uint32_t& best = next_container_[p];
    // A container's dst mask is a subset of m's, so it is a scan-list row or
    // sits on the node chain of m's (leading) dst prefix, m's own node first.
    auto first_container = [&](const uint32_t* begin, const uint32_t* end) {
      for (const uint32_t* it = std::upper_bound(begin, end, p); it != end && *it < best;
           ++it) {
        if (rows_.matches[*it]->subsumes(m)) {
          best = *it;
          return;
        }
      }
    };
    int32_t a = node_of_[p];
    if (a == kNone) {
      const Span s = span_of(m);
      a = s.self ? static_cast<int32_t>(s.first) : s.anc;
    }
    for (; a != kNone; a = parent_[a]) {
      first_container(pos_.data() + begin_[a], pos_.data() + begin_[a + 1]);
    }
    first_container(scan_.data(), scan_.data() + scan_.size());
  }
}

/// Reusable per-row scratch: candidate positions, residue fragment arena,
/// per-pair cover arena. One instance per thread.
struct RowScratch {
  std::vector<size_t> targets;
  std::vector<size_t> cands;
  std::vector<TernaryMatch> residue;
  std::vector<TernaryMatch> next;
  std::vector<size_t> between_pos;
  std::vector<TernaryMatch> between;
  flowspace::CoverScratch cover;
  // Cover-test overflows over every row this scratch has served. Workers
  // count into their own scratch; the build sums them after the join.
  size_t cover_overflows = 0;
};

/// Per-row kernel: appends to `out` the positions of row i's direct
/// dependencies, in descending position. The candidates are the rows above
/// i that overlap it; any rule covering part of an overlap with row i itself
/// overlaps row i, so they are all the walk needs.
void row_direct_dependencies(const Rows& rows, const RowIndex& index, size_t i,
                             const MinDagBuildOptions& opts, RowScratch& scratch,
                             std::vector<size_t>& out) {
  const TernaryMatch& m = *rows.matches[i];
  auto& cands = scratch.cands;
  cands.clear();
  index.for_each_overlapping_row(i, 0, i, [&](size_t p) { cands.push_back(p); });
  if (cands.empty()) return;
  std::sort(cands.begin(), cands.end());

  // Residue walk, candidates in descending match order: before candidate c
  // is tested, `residue` equals m minus every rule between c and row i
  // (restricted to rules overlapping m — the others subtract nothing). The
  // direct-dependency test is then a plain overlap scan, and one subtraction
  // chain serves the entire row instead of one cover test per pair. The
  // residue is disjoint from every candidate the walk has passed, so a
  // candidate contained in a passed one (a later row, still above i) can
  // neither hit nor subtract anything: the walk skips it.
  auto& residue = scratch.residue;
  auto& next = scratch.next;
  residue.clear();
  residue.push_back(m);
  for (size_t c = cands.size(); c-- > 0;) {
    if (index.next_container(cands[c]) < i) continue;
    const TernaryMatch& cand = *rows.matches[cands[c]];
    bool hit = false;
    for (const TernaryMatch& f : residue) {
      if (f.overlaps(cand)) {
        hit = true;
        break;
      }
    }
    if (!hit) continue;
    out.push_back(cands[c]);
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
      // of a pair is one window query: the rows strictly between the
      // candidate and row i that overlap their overlap.
      for (size_t c2 = c; c2-- > 0;) {
        const size_t p = cands[c2];
        // A contained candidate's container is in its between-set and
        // covers the whole overlap: no edge, and no cover test to overflow.
        if (index.next_container(p) < i) continue;
        const auto overlap = m.intersect(*rows.matches[p]);
        if (!overlap) continue;  // candidates overlap m by contract
        auto& between_pos = scratch.between_pos;
        between_pos.clear();
        index.for_each_overlapping(*overlap, p + 1, i,
                                   [&](size_t k) { between_pos.push_back(k); });
        // Most-general covers first: they erase whole fragment families at
        // once, keeping the subtraction shallow. Ties break on position so
        // the cover order — and with it any overflow verdict — is identical
        // regardless of index iteration order (serial and parallel builds
        // must stay bit-identical).
        std::sort(between_pos.begin(), between_pos.end(), [&](size_t a, size_t b) {
          const uint32_t ba = rows.matches[a]->specified_bits();
          const uint32_t bb = rows.matches[b]->specified_bits();
          if (ba != bb) return ba < bb;
          return a < b;
        });
        auto& between = scratch.between;
        between.clear();
        for (const size_t k : between_pos) between.push_back(*rows.matches[k]);
        const CoverResult r = flowspace::try_cover(
            *overlap, {between.data(), between.size()}, scratch.cover,
            opts.fragment_limit);
        if (r != CoverResult::kCovered) out.push_back(p);  // overflow: keep edge
        if (r == CoverResult::kOverflow) ++scratch.cover_overflows;
      }
      return;
    }
  }
}

/// A build's edges as bulk_load_indexed takes them: (row, row) pairs.
using RowEdges = std::vector<std::pair<uint32_t, uint32_t>>;

/// Appends row i's direct dependencies to `edges` in row order.
void append_row_edges(const Rows& rows, const RowIndex& index, size_t i,
                      const MinDagBuildOptions& opts, RowScratch& scratch, RowEdges& edges) {
  std::vector<size_t>& targets = scratch.targets;
  targets.clear();
  row_direct_dependencies(rows, index, i, opts, scratch, targets);
  // The kernel finds them nearest first, i.e. in descending position.
  for (size_t k = targets.size(); k-- > 0;) {
    edges.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(targets[k]));
  }
}

/// Direct small-table path: the brute-force pair/between structure, but with
/// the arena-backed try_cover kernel and the repository's uniform
/// conservative overflow policy (keep the edge). No index, no residue walk —
/// below kSmallTableDirectCutoff their setup costs more than they save.
RowEdges direct_edges(const Rows& rows, const MinDagBuildOptions& opts,
                      MinDagBuildStats& stats) {
  RowEdges edges;
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
        edges.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
      if (r == CoverResult::kOverflow) ++stats.cover_overflows;
    }
  }
  return edges;
}

/// The edges of the indexed row loop, in row order.
RowEdges indexed_edges(const Rows& rows, const MinDagBuildOptions& opts,
                       MinDagBuildStats& stats) {
  const size_t n = rows.size();
  RowEdges edges;
  if (n < 2) return edges;
  const RowIndex index(rows);
  // One scratch per worker (one in total when serial); each counts its
  // rows' overflow fallbacks, summed after the join.
  std::deque<RowScratch> scratches;
  if (!uses_parallel_path(n, opts)) {
    RowScratch& scratch = scratches.emplace_back();
    for (size_t i = 1; i < n; ++i) append_row_edges(rows, index, i, opts, scratch, edges);
  } else {
    // Rows are independent given the (read-only) input and index: workers
    // claim chunks off an atomic cursor with per-thread arenas, and each
    // chunk's edges land in that chunk's slot, so concatenating the slots
    // gives the serial row order on any thread count.
    const size_t chunk = util::ChunkCursor::suggest_chunk(n, opts.n_threads);
    std::vector<RowEdges> chunk_edges((n - 1 + chunk - 1) / chunk);
    util::ChunkCursor cursor(1, n, chunk);
    util::ThreadPool pool(opts.n_threads);
    util::run_on_workers(pool, [&] {
      return [&, &scratch = scratches.emplace_back()] {
        size_t begin, end;
        while (cursor.next(begin, end)) {
          RowEdges& out = chunk_edges[(begin - 1) / chunk];
          for (size_t i = begin; i < end; ++i) {
            append_row_edges(rows, index, i, opts, scratch, out);
          }
        }
      };
    });
    size_t total = 0;
    for (const RowEdges& c : chunk_edges) total += c.size();
    edges.reserve(total);
    for (const RowEdges& c : chunk_edges) edges.insert(edges.end(), c.begin(), c.end());
  }
  for (const RowScratch& scratch : scratches) stats.cover_overflows += scratch.cover_overflows;
  return edges;
}

/// The one row loop every optimized entry point shares. The edges come out
/// in row order and are bulk-loaded once, so every adjacency list ascends
/// by row (see dependency_graph.h) on any thread count.
DependencyGraph build_rows(const Rows& rows, const MinDagBuildOptions& opts,
                           MinDagBuildStats* stats) {
  MinDagBuildStats local;
  MinDagBuildStats& out = stats != nullptr ? *stats : local;
  out = MinDagBuildStats{};
  const RowEdges edges = uses_direct_path(rows.size(), opts)
                             ? direct_edges(rows, opts, out)
                             : indexed_edges(rows, opts, out);
  DependencyGraph graph;
  graph.bulk_load_indexed(rows.ids, edges);
  return graph;
}

}  // namespace

void set_default_build_threads(size_t n) { g_default_build_threads = n; }
size_t default_build_threads() { return g_default_build_threads; }

bool uses_direct_path(size_t table_size, const MinDagBuildOptions& opts) {
  return table_size < opts.direct_cutoff;
}

bool uses_parallel_path(size_t table_size, const MinDagBuildOptions& opts) {
  return !uses_direct_path(table_size, opts) && opts.n_threads > 1 &&
         table_size >= opts.parallel_cutoff;
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
