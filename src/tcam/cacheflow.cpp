#include "tcam/cacheflow.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "util/logging.h"

namespace ruletris::tcam {

using flowspace::Action;
using flowspace::ActionList;
using flowspace::ActionType;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

CacheFlowManager::CacheFlowManager(std::vector<Rule> rules,
                                   const dag::DependencyGraph& graph, Mode mode,
                                   size_t tcam_capacity)
    : rules_(std::move(rules)),
      mode_(mode),
      tcam_(std::make_unique<Tcam>(tcam_capacity)),
      soft_(rules_),  // ctor order == FlowTable tie order; handle == position
      cached_(rules_.size(), 0),
      cover_ids_(rules_.size(), flowspace::kInvalidRuleId),
      cover_refs_(rules_.size(), 0),
      hits_(rules_.size(), 0) {
  if (rules_.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("CacheFlow: table too large");
  }
  rule_order_.reserve(rules_.size());
  position_.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    rule_order_.push_back(rules_[i].id);
    position_.insert(rules_[i].id, static_cast<uint32_t>(i));
    // classify() reads a slow-path hit's position off its soft-table
    // handle: the table is built in rule order and never erased from.
    assert(soft_.at(static_cast<uint32_t>(i)).id == rules_[i].id);
  }
  // A dependency must be in the table (its cover stands in for it); a
  // dependent outside the table can never be cached and is dropped.
  auto flatten = [&](auto neighbours, bool required, std::vector<uint32_t>& begin,
                     std::vector<uint32_t>& flat) {
    begin.reserve(rules_.size() + 1);
    begin.push_back(0);
    for (const Rule& r : rules_) {
      if (graph.has_vertex(r.id)) {
        for (RuleId n : (graph.*neighbours)(r.id)) {
          const size_t pos = required ? require_position(n) : position_of(n);
          if (pos != kNoPosition) flat.push_back(static_cast<uint32_t>(pos));
        }
      }
      begin.push_back(static_cast<uint32_t>(flat.size()));
    }
  };
  flatten(&dag::DependencyGraph::successors, true, succ_begin_, succ_);
  flatten(&dag::DependencyGraph::predecessors, false, pred_begin_, pred_);
  if (mode_ == Mode::kDagFirmware) {
    dag_firmware_ = std::make_unique<DagScheduler>(*tcam_);
  } else {
    priority_firmware_ = std::make_unique<PriorityFirmware>(*tcam_);
  }
}

size_t CacheFlowManager::position_of(RuleId id) const {
  const uint32_t* pos = position_.find(id);
  return pos == nullptr ? kNoPosition : *pos;
}

size_t CacheFlowManager::require_position(RuleId id) const {
  const size_t pos = position_of(id);
  if (pos == kNoPosition) throw std::out_of_range("CacheFlow: unknown rule");
  return pos;
}

bool CacheFlowManager::is_cached(RuleId id) const {
  const size_t pos = position_of(id);
  return pos != kNoPosition && cached_[pos];
}

bool CacheFlowManager::firmware_insert(const Rule& rule,
                                       const std::vector<RuleId>& above_ids,
                                       const std::vector<RuleId>& below_ids) {
  if (mode_ == Mode::kDagFirmware) {
    // One funnelled update: the vertex, its edges and the rule go through
    // apply_status, whose graph hooks keep the scheduler's cap cells exact,
    // so a swap never pays a full CapIndex rebuild. On a full TCAM it is
    // rejected before adding the vertex or an edge, so a failure needs no
    // cleanup. The update's vectors are reused, so this allocates only when
    // an edge list outgrows them.
    BackendUpdate& u = firmware_update_;
    u.added.assign(1, rule);
    u.dag.added_vertices.assign(1, rule.id);
    u.dag.added_edges.clear();
    for (RuleId a : above_ids) u.dag.added_edges.emplace_back(rule.id, a);
    for (RuleId b : below_ids) u.dag.added_edges.emplace_back(b, rule.id);
    return dag_firmware_->apply(u);
  }
  return priority_firmware_->insert(rule);
}

void CacheFlowManager::firmware_remove(RuleId id) {
  if (mode_ == Mode::kDagFirmware) {
    dag_firmware_->remove(id);
  } else {
    priority_firmware_->remove(id);
  }
}

bool CacheFlowManager::ensure_cover(size_t dep) {
  if (cover_refs_[dep]++ > 0) return true;  // cover already installed

  const Rule& target = rules_[dep];
  Rule cover{flowspace::next_rule_id(), target.match,
             ActionList{Action::to_software()}, target.priority};
  // A cover only punts, so it needs no constraints of its own; the edges
  // from future dependents are added at their insert time.
  if (!firmware_insert(cover, {}, {})) {
    util::log_warn("CacheFlow: TCAM full while installing cover rule");
    cover_refs_[dep] = 0;
    return false;
  }
  cover_ids_[dep] = cover.id;
  cover_targets_[cover.id] = target.id;
  return true;
}

void CacheFlowManager::drop_cover(size_t dep) {
  firmware_remove(cover_ids_[dep]);
  cover_targets_.erase(cover_ids_[dep]);
  cover_ids_[dep] = flowspace::kInvalidRuleId;
  cover_refs_[dep] = 0;
}

void CacheFlowManager::release_cover(size_t dep) {
  if (cover_refs_[dep] == 0 || --cover_refs_[dep] > 0) return;
  drop_cover(dep);
}

bool CacheFlowManager::install(RuleId id) {
  const size_t pos = require_position(id);
  if (cached_[pos]) return true;

  // Cover-set: every direct dependency must be present (really or as punt).
  // Cover acquisitions are rolled back if anything fails (full TCAM), so a
  // failed install leaves the cache state untouched.
  std::vector<RuleId> above;
  std::vector<size_t> acquired;
  auto rollback = [this, &acquired] {
    for (size_t dep : acquired) release_cover(dep);
  };
  for (const size_t dep : successors_at(pos)) {
    if (cached_[dep]) {
      above.push_back(rule_order_[dep]);
      continue;
    }
    if (!ensure_cover(dep)) {
      rollback();
      return false;
    }
    acquired.push_back(dep);
    above.push_back(cover_ids_[dep]);
  }
  // Cached rules that depend on `id` must sit below it.
  std::vector<RuleId> below;
  for (const size_t pred : predecessors_at(pos)) {
    if (cached_[pred]) below.push_back(rule_order_[pred]);
  }

  if (!firmware_insert(rules_[pos], above, below)) {
    rollback();
    return false;
  }
  cached_[pos] = 1;
  ++cached_count_;

  // If a cover was standing in for `id`, the real rule supersedes it.
  if (cover_refs_[pos] > 0) drop_cover(pos);
  return true;
}

void CacheFlowManager::evict(RuleId id) {
  const size_t pos = position_of(id);
  if (pos == kNoPosition || !cached_[pos]) return;

  std::vector<RuleId> cached_dependents;
  for (const size_t pred : predecessors_at(pos)) {
    if (cached_[pred]) cached_dependents.push_back(rule_order_[pred]);
  }

  firmware_remove(id);
  cached_[pos] = 0;
  --cached_count_;

  if (!cached_dependents.empty()) {
    // Demote to a cover: dependents still need the ambiguity resolved.
    const Rule& target = rules_[pos];
    Rule cover{flowspace::next_rule_id(), target.match,
               ActionList{Action::to_software()}, target.priority};
    if (!firmware_insert(cover, {}, cached_dependents)) {
      util::log_warn("CacheFlow: TCAM full while demoting rule to cover");
    } else {
      cover_ids_[pos] = cover.id;
      cover_refs_[pos] = static_cast<uint32_t>(cached_dependents.size());
      cover_targets_[cover.id] = id;
    }
  }

  for (const size_t dep : successors_at(pos)) {
    if (!cached_[dep]) release_cover(dep);
  }
}

bool CacheFlowManager::swap(RuleId out_id, RuleId in_id) {
  evict(out_id);
  return install(in_id);
}

std::vector<RuleId> CacheFlowManager::cached_rules() const {
  std::vector<RuleId> out;
  out.reserve(cached_count_);
  for (size_t pos = 0; pos < rules_.size(); ++pos) {
    if (cached_[pos]) out.push_back(rule_order_[pos]);
  }
  return out;
}

bool CacheFlowManager::lookup_consistent(const Packet& packet) const {
  const Rule* hit = tcam_->lookup(packet);
  if (hit == nullptr) return true;  // TCAM miss: default punt to software
  if (hit->actions.contains(ActionType::kToSoftware)) return true;  // explicit punt

  // Fast-path hit: must agree with the full table's decision. The tuple-
  // space slow path *is* the full table (FlowTable-equivalent semantics),
  // so it serves as the oracle at O(#tuples) instead of O(rules).
  const Rule* truth = soft_.lookup(packet);
  return truth != nullptr && truth->id == hit->id;
}

CacheFlowManager::LookupOutcome CacheFlowManager::classify(const Packet& packet) const {
  const Rule* hit = tcam_->lookup(packet);
  if (hit != nullptr && !hit->actions.contains(ActionType::kToSoftware)) {
    return LookupOutcome{hit, true, position_of(hit->id)};
  }
  // Miss or cover punt: the software path answers from the full table.
  const Rule* truth = soft_.lookup(packet);
  if (truth == nullptr) return LookupOutcome{};
  return LookupOutcome{truth, false, soft_.handle_of(truth)};
}

void CacheFlowManager::classify_batch(std::span<const Packet> packets,
                                      std::span<LookupOutcome> out) const {
  if (packets.size() != out.size()) {
    throw std::invalid_argument("CacheFlow::classify_batch: packets and out differ in length");
  }
  Packet punted[TupleSpace::kBatch] = {};
  size_t punted_at[TupleSpace::kBatch] = {};
  const Rule* truth[TupleSpace::kBatch] = {};
  size_t n = 0;
  const auto resolve = [&] {
    soft_.lookup_batch({punted, n}, {truth, n});
    for (size_t j = 0; j < n; ++j) {
      out[punted_at[j]] = truth[j] == nullptr
                              ? LookupOutcome{}
                              : LookupOutcome{truth[j], false, soft_.handle_of(truth[j])};
    }
    n = 0;
  };
  for (size_t i = 0; i < packets.size(); ++i) {
    const Rule* hit = tcam_->lookup(packets[i]);
    if (hit != nullptr && !hit->actions.contains(ActionType::kToSoftware)) {
      out[i] = LookupOutcome{hit, true, position_of(hit->id)};
      continue;
    }
    // Miss or cover punt: the software path answers, a group at a time.
    punted[n] = packets[i];
    punted_at[n++] = i;
    if (n == TupleSpace::kBatch) resolve();
  }
  if (n > 0) resolve();
}

CacheFlowManager::LookupOutcome CacheFlowManager::lookup(const Packet& packet) {
  const LookupOutcome out = classify(packet);
  if (out.rule != nullptr) add_hits_at(out.position, 1);
  return out;
}

void CacheFlowManager::add_hits(RuleId id, uint64_t n) {
  hits_[require_position(id)] += n;
}

uint64_t CacheFlowManager::hits(RuleId id) const {
  const size_t pos = position_of(id);
  return pos == kNoPosition ? 0 : hits_[pos];
}

void CacheFlowManager::age_hits() {
  for (uint64_t& h : hits_) h >>= 1;
}

size_t CacheFlowManager::install_cost(RuleId id) const {
  return install_cost_at(require_position(id));
}

size_t CacheFlowManager::install_cost_at(size_t pos) const {
  const auto deps = successors_at(pos);
  if (cached_[pos]) {
    // Entries an eviction reclaims: the rule itself plus every cover held
    // solely on its behalf (refcount 1 covers of its dependencies). A
    // demotion-to-cover on evict would win one back, but dependents are the
    // exception in hot sets, so the symmetric estimate keeps densities
    // comparable in both directions.
    size_t reclaim = 1;
    for (const size_t dep : deps) {
      if (!cached_[dep] && cover_refs_[dep] == 1) ++reclaim;
    }
    return reclaim;
  }
  size_t cost = 1;
  for (const size_t dep : deps) {
    if (!cached_[dep] && cover_refs_[dep] == 0) ++cost;
  }
  return cost;
}

namespace {

/// density(a) > density(b) with density(x) = hits(x) / cost(x), exactly and
/// deterministically: cross-multiplied in 128 bits, no floating point.
bool density_greater(uint64_t hits_a, size_t cost_a, uint64_t hits_b,
                     size_t cost_b) {
  return static_cast<unsigned __int128>(hits_a) * cost_b >
         static_cast<unsigned __int128>(hits_b) * cost_a;
}

/// One planner candidate: its sort inputs computed once, plus its
/// rule_order position as the tie-break a stable sort would apply.
struct Candidate {
  uint64_t hits;
  size_t cost;
  size_t pos;
};

/// Densest first; equal densities keep rule order.
bool denser(const Candidate& a, const Candidate& b) {
  if (density_greater(a.hits, a.cost, b.hits, b.cost)) return true;
  if (density_greater(b.hits, b.cost, a.hits, a.cost)) return false;
  return a.pos < b.pos;
}

/// Sparsest first; equal densities keep rule order.
bool sparser(const Candidate& a, const Candidate& b) {
  if (density_greater(b.hits, b.cost, a.hits, a.cost)) return true;
  if (density_greater(a.hits, a.cost, b.hits, b.cost)) return false;
  return a.pos < b.pos;
}

/// Fewest dependencies first; ties keep rule order.
bool fewer_deps(const Candidate& a, const Candidate& b) {
  return a.cost != b.cost ? a.cost < b.cost : a.pos < b.pos;
}

}  // namespace

size_t CacheFlowManager::warm(AdmissionPolicy policy, size_t target_occupied) {
  // Candidates are the uncached rules. kStaticDag ranks by DAG position
  // only — rules whose cover set is small cache cheaply, and traffic never
  // enters the ranking; kFlowDriven by hit density.
  const bool by_deps = policy == AdmissionPolicy::kStaticDag;
  std::vector<Candidate> candidates;
  candidates.reserve(rules_.size() - cached_count_);
  for (size_t pos = 0; pos < rules_.size(); ++pos) {
    if (cached_[pos]) continue;
    candidates.push_back(
        by_deps ? Candidate{0, successors_at(pos).size(), pos}
                : Candidate{hits_[pos], install_cost_at(pos), pos});
  }
  // Every comparator is a strict total order ending on the position, so
  // this sort gives the order a stable sort by the policy's key would.
  std::sort(candidates.begin(), candidates.end(), by_deps ? fewer_deps : denser);
  size_t installed = 0;
  for (const Candidate& c : candidates) {
    if (tcam_->occupied() >= target_occupied) break;
    if (tcam_->occupied() + install_cost_at(c.pos) > tcam_->capacity()) continue;
    if (install(rule_order_[c.pos])) ++installed;
  }
  return installed;
}

std::vector<CacheFlowManager::SwapPlan> CacheFlowManager::plan_swaps(
    size_t max_swaps) const {
  // Victims: every cached rule. Candidates: the k densest uncached rules
  // with hits, kept as a heap whose front is the sparsest of them (the
  // k-th). Once the heap is full, a candidate with at most floor(hits /
  // cost) of the k-th's hits cannot strictly beat its density even at the
  // minimum cost of 1, and positions are scanned in ascending order, so a
  // tie ranks below the k-th: such candidates are skipped before
  // install_cost_at is paid. The heap then holds exactly the prefix a full
  // stable sort by density would give.
  const size_t k = std::min(max_swaps, cached_count_);
  if (k == 0) return {};
  std::vector<Candidate> in_rules, out_rules;
  in_rules.reserve(k);
  out_rules.reserve(cached_count_);
  uint64_t floor_hits = 0;  // candidates need more hits than this
  for (size_t pos = 0; pos < rules_.size(); ++pos) {
    const uint64_t hits = hits_[pos];
    if (cached_[pos]) {
      out_rules.push_back({hits, install_cost_at(pos), pos});
      continue;
    }
    if (hits <= floor_hits) continue;
    const Candidate c{hits, install_cost_at(pos), pos};
    if (in_rules.size() == k) {
      if (!denser(c, in_rules.front())) continue;
      std::pop_heap(in_rules.begin(), in_rules.end(), denser);
      in_rules.back() = c;
    } else {
      in_rules.push_back(c);
    }
    std::push_heap(in_rules.begin(), in_rules.end(), denser);
    if (in_rules.size() == k) floor_hits = in_rules.front().hits / in_rules.front().cost;
  }
  std::sort_heap(in_rules.begin(), in_rules.end(), denser);  // densest first
  // Every comparator above is a strict total order ending on the position,
  // so the sorted victim prefix is exactly what a full stable sort gives.
  const size_t pairs = in_rules.size();
  std::partial_sort(out_rules.begin(),
                    out_rules.begin() + static_cast<ptrdiff_t>(pairs),
                    out_rules.end(), sparser);

  std::vector<SwapPlan> plan;
  for (size_t i = 0; i < pairs; ++i) {
    const Candidate& in = in_rules[i];
    const Candidate& out = out_rules[i];
    // Swap only while the incoming density strictly beats the victim's —
    // both lists are sorted, so the first non-improving pair ends the plan.
    if (!density_greater(in.hits, in.cost, out.hits, out.cost)) break;
    plan.push_back(SwapPlan{rule_order_[out.pos], rule_order_[in.pos]});
  }
  return plan;
}

size_t CacheFlowManager::rebalance(AdmissionPolicy policy, size_t max_swaps) {
  if (policy == AdmissionPolicy::kStaticDag) return 0;
  size_t done = 0;
  size_t consecutive_failures = 0;
  for (const SwapPlan& s : plan_swaps(max_swaps)) {
    if (swap(s.out, s.in)) {
      ++done;
      consecutive_failures = 0;
      continue;
    }
    // Full TCAM (cover blow-up): restore the victim; a couple of failures
    // in a row means the remaining (denser-cover) candidates won't fit.
    ++stats_.failed_swaps;
    if (!install(s.out)) ++stats_.restore_failures;
    if (++consecutive_failures >= 2) {
      ++stats_.early_stops;
      break;
    }
  }
  return done;
}

}  // namespace ruletris::tcam
