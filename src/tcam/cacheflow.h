// CacheFlow manager (Sec. V-C; Katta et al., HotSDN'14).
//
// Maintains a two-level rule cache: the TCAM holds a hot subset of a large
// rule table, and correctness is preserved by installing "cover-set" rules —
// for every direct DAG dependency of a cached rule whose target is not
// itself cached, a punt rule with the target's match and a to-software
// action sits above the cached rule, redirecting ambiguous packets to the
// slow path. Swaps (evict one rule, install another) are driven either by
// the DAG scheduler (RuleTris back-end) or by the priority firmware
// (baseline), which is exactly the comparison of Fig. 11.
//
// The slow path is a SoftTable (tuple-space search over nested-mask chains),
// so a miss costs a few hash probes instead of a linear scan over the full
// table, and admission is flow-driven per FDRC (PAPERS.md): per-rule hit
// counters from real lookups, weighed against the cover-set installation
// cost of caching the rule, pick what the TCAM holds — replacing the static
// DAG-position ranking, which survives as the ablation baseline.
//
// Per-rule state (hit counters, cached flags, cover references) lives in
// dense vectors indexed by the rule's position in rule_order(), so the
// planner walks flat arrays: one (hits, cost, position) key per victim and
// a bounded heap of the k densest candidates, skipping any candidate whose
// hits alone cannot beat the k-th before its install cost is computed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dag/dependency_graph.h"
#include "flowspace/rule.h"
#include "tcam/dag_scheduler.h"
#include "tcam/priority_firmware.h"
#include "tcam/soft_table.h"
#include "tcam/tcam.h"
#include "util/rule_id_map.h"

namespace ruletris::tcam {

class CacheFlowManager {
 public:
  enum class Mode { kDagFirmware, kPriorityFirmware };

  /// What picks the cached subset. kStaticDag ranks rules by DAG position
  /// only (cover-set size, i.e. how cheaply they cache) — traffic-blind.
  /// kFlowDriven ranks by measured hit density (hits / install cost), FDRC
  /// style, and keeps adapting through rebalance().
  enum class AdmissionPolicy { kStaticDag, kFlowDriven };

  /// `rules` is the full rule set (matched-first order with priorities set);
  /// `graph` its minimum DAG (flattened at construction, not retained).
  CacheFlowManager(std::vector<Rule> rules, const dag::DependencyGraph& graph,
                   Mode mode, size_t tcam_capacity);

  /// Installs `id` (and any cover rules its dependencies require).
  bool install(flowspace::RuleId id);

  /// Evicts `id`. If cached rules still depend on it, it is demoted to a
  /// cover rule instead of vanishing.
  void evict(flowspace::RuleId id);

  /// One cache swap: evict `out_id`, install `in_id`.
  bool swap(flowspace::RuleId out_id, flowspace::RuleId in_id);

  bool is_cached(flowspace::RuleId id) const;

  size_t cached_count() const { return cached_count_; }
  size_t cover_count() const { return cover_targets_.size(); }

  /// For a cover (punt) rule: the full-table rule it stands in for;
  /// kInvalidRuleId otherwise. Cover rule ids come from the process-wide id
  /// counter, so layout fingerprints canonicalize covers through this.
  flowspace::RuleId cover_target(flowspace::RuleId cover_id) const {
    auto it = cover_targets_.find(cover_id);
    return it == cover_targets_.end() ? flowspace::kInvalidRuleId : it->second;
  }

  Tcam& tcam() { return *tcam_; }
  const Tcam& tcam() const { return *tcam_; }
  /// The DAG firmware (nullptr in priority mode).
  const DagScheduler* dag_firmware() const { return dag_firmware_.get(); }

  /// The software slow path over the full table.
  const SoftTable& soft_table() const { return soft_; }

  std::vector<flowspace::RuleId> cached_rules() const;

  /// Full rule set in the matched-first order the manager was built with —
  /// the deterministic iteration order for policies and reports.
  const std::vector<flowspace::RuleId>& rule_order() const { return rule_order_; }

  static constexpr size_t kNoPosition = ~size_t{0};
  /// Position of `id` in rule_order(), or kNoPosition for ids outside the
  /// full table (cover rules included).
  size_t position_of(flowspace::RuleId id) const;

  // --- data-plane lookup -----------------------------------------------

  struct LookupOutcome {
    const Rule* rule = nullptr;  // the table's decision (never a cover)
    bool fast_path = false;      // true: TCAM answered without punting
    size_t position = kNoPosition;  // rule's rule_order() position, when rule is set
  };

  /// Classifies `packet` without touching hit counters: TCAM first; a miss
  /// or a cover punt falls through to the tuple-space slow path. Strictly
  /// const — reader shards may call it concurrently as long as no cache
  /// mutation (install/evict/swap/rebalance) races.
  LookupOutcome classify(const flowspace::Packet& packet) const;

  /// classify() of every packet at once: `out[j] = classify(packets[j])`,
  /// with `out` as long as `packets`. The TCAM answers packet by packet (it
  /// is small and stays in cache); misses and cover punts are collected and
  /// resolved by SoftTable::lookup_batch, whose chain descents overlap.
  /// Const, under the same rule as classify().
  void classify_batch(std::span<const flowspace::Packet> packets,
                      std::span<LookupOutcome> out) const;

  /// classify() that also credits the winning rule's hit counter.
  LookupOutcome lookup(const flowspace::Packet& packet);

  /// Bulk hit credit — the traffic engine counts per shard and merges here.
  void add_hits(flowspace::RuleId id, uint64_t n);
  /// add_hits by rule_order() position.
  void add_hits_at(size_t position, uint64_t n) { hits_[position] += n; }
  uint64_t hits(flowspace::RuleId id) const;
  /// Exponential aging: halves every counter (integer, deterministic).
  void age_hits();

  // --- admission policies -----------------------------------------------

  /// Marginal TCAM cost of caching `id` right now: 1 entry for the rule
  /// plus one cover entry per direct dependency that is neither cached nor
  /// already covered. For a cached rule: the entries an eviction reclaims.
  size_t install_cost(flowspace::RuleId id) const;

  /// Fills the cache from the current state until the TCAM holds at least
  /// `target_occupied` entries (covers included) or candidates run out.
  /// kStaticDag installs in DAG-position order (cheapest cover-set first);
  /// kFlowDriven in hit-density order. Returns rules installed.
  size_t warm(AdmissionPolicy policy, size_t target_occupied);

  struct SwapPlan {
    flowspace::RuleId out = flowspace::kInvalidRuleId;
    flowspace::RuleId in = flowspace::kInvalidRuleId;
  };

  /// FDRC plan: up to `max_swaps` (victim, candidate) pairs where the
  /// candidate's hit density (hits / install cost) strictly beats the
  /// victim's. Deterministic (integer cross-multiplied densities, id
  /// tie-breaks); does not mutate the cache.
  std::vector<SwapPlan> plan_swaps(size_t max_swaps) const;

  /// Executes plan_swaps for kFlowDriven (kStaticDag is a no-op: its layout
  /// is fixed by construction). Returns swaps performed; a failed install
  /// (TCAM full of covers) restores the victim and moves on. Every fallback
  /// is counted in stats().
  size_t rebalance(AdmissionPolicy policy, size_t max_swaps);

  /// Rebalance fallbacks, cumulative over the manager's life.
  struct Stats {
    size_t failed_swaps = 0;      // candidate did not fit; victim reinstalled
    size_t early_stops = 0;       // two failures in a row ended the plan
    size_t restore_failures = 0;  // the victim's reinstall failed too: it
                                  // left the cache
  };
  const Stats& stats() const { return stats_; }

  /// Semantic check: for `packet`, the TCAM either returns the same decision
  /// as the full table or punts to software (never a wrong fast-path hit).
  bool lookup_consistent(const flowspace::Packet& packet) const;

 private:
  /// position_of() that throws for ids outside the full table.
  size_t require_position(flowspace::RuleId id) const;
  size_t install_cost_at(size_t pos) const;
  std::span<const uint32_t> successors_at(size_t pos) const {
    return {succ_.data() + succ_begin_[pos], succ_.data() + succ_begin_[pos + 1]};
  }
  std::span<const uint32_t> predecessors_at(size_t pos) const {
    return {pred_.data() + pred_begin_[pos], pred_.data() + pred_begin_[pos + 1]};
  }

  /// Ensures a cover for the rule at `dep` exists (or that it is cached);
  /// bumps the reference count held by a dependent.
  bool ensure_cover(size_t dep);
  void release_cover(size_t dep);
  void drop_cover(size_t dep);

  bool firmware_insert(const Rule& rule,
                       const std::vector<flowspace::RuleId>& above_ids,
                       const std::vector<flowspace::RuleId>& below_ids);
  void firmware_remove(flowspace::RuleId id);

  std::vector<Rule> rules_;                    // the full table, by position
  std::vector<flowspace::RuleId> rule_order_;  // matched-first order
  util::RuleIdMap<uint32_t> position_;               // id -> position
  // The full table's minimum DAG as position adjacency (CSR): rule `pos`
  // depends on succ_[succ_begin_[pos] .. succ_begin_[pos + 1]), in the
  // graph's own iteration order; pred_ likewise holds its dependents.
  std::vector<uint32_t> succ_begin_, succ_;
  std::vector<uint32_t> pred_begin_, pred_;
  Mode mode_;

  std::unique_ptr<Tcam> tcam_;
  std::unique_ptr<DagScheduler> dag_firmware_;
  BackendUpdate firmware_update_;  // firmware_insert's reused DAG-mode update
  std::unique_ptr<PriorityFirmware> priority_firmware_;
  SoftTable soft_;  // slow path == full-table truth

  // Dense per-position state. A rule has a cover installed iff its
  // cover_refs_ entry is non-zero.
  std::vector<uint8_t> cached_;                 // real rule in TCAM
  size_t cached_count_ = 0;
  std::vector<flowspace::RuleId> cover_ids_;    // cover id standing in
  std::vector<uint32_t> cover_refs_;            // cached dependents it serves
  std::vector<uint64_t> hits_;                  // measured traffic
  std::unordered_map<flowspace::RuleId, flowspace::RuleId> cover_targets_;  // cover id -> dep id
  Stats stats_;
};

}  // namespace ruletris::tcam
