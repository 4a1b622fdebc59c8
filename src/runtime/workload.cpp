#include "runtime/workload.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "classbench/generator.h"
#include "compiler/ruletris_compiler.h"
#include "switchsim/adapters.h"

namespace ruletris::runtime {

using compiler::TableUpdate;
using flowspace::Rule;
using flowspace::RuleId;

namespace {

/// Moves `r`'s dst_ip match into the burst's /bits block: the high `bits`
/// come from `base`, any deeper prefix bits the rule already had are kept,
/// and prefixes coarser than the block are deepened to exactly the block —
/// so the ClassBench length mixture survives below the block boundary.
Rule localize(Rule r, uint32_t base, uint32_t bits) {
  const flowspace::FieldTernary& dst = r.match.field(flowspace::FieldId::kDstIp);
  const uint32_t len = static_cast<uint32_t>(__builtin_popcount(dst.mask));
  const uint32_t top = 0xffffffffu << (32 - bits);
  r.match.set_prefix(flowspace::FieldId::kDstIp,
                     (base & top) | (dst.value & ~top), std::max(len, bits));
  return r;
}

}  // namespace

ChurnEngine::ChurnEngine(const compiler::PolicySpec& spec,
                         std::map<std::string, flowspace::FlowTable> tables,
                         const ChurnSpec& churn)
    : churn_(churn),
      leaf_(churn.leaf.empty() ? spec.leaf_names().front() : churn.leaf),
      rng_(churn.seed) {
  auto leaf_it = tables.find(leaf_);
  if (leaf_it == tables.end()) {
    throw std::runtime_error("churn leaf has no table: " + leaf_);
  }
  // Member rules currently live in the churned leaf (delete/modify victims).
  for (const Rule& r : leaf_it->second.rules()) live_.push_back(r.id);
  if (!churn_.make_rule) {
    churn_.make_rule = [](util::Rng& r) {
      return classbench::random_monitor_rule(100, r);
    };
  }
  frontend_ = std::make_unique<compiler::RuleTrisCompiler>(spec, std::move(tables));
  peak_visible_ = frontend_->root().visible_size();
}

ChurnEngine::~ChurnEngine() = default;

std::vector<Rule> ChurnEngine::current_rules() const {
  return frontend_->root().visible_rules_in_order();
}

ChurnEngine::Step ChurnEngine::step() {
  if (done()) throw std::runtime_error("ChurnEngine: step past the last epoch");
  Step out;
  if (produced_ == 0) {
    // Epoch 1: install the initial composed table and its minimum DAG.
    const TableUpdate initial = compiler::full_install(frontend_->root());
    out.ops = initial.added.size();
    out.batch = switchsim::to_messages(initial);
    ++produced_;
    return out;
  }

  const BurstSpec& burst = churn_.burst;
  TableUpdate update;
  if (!burst.enabled) {
    // Classic one-op epochs. This branch's RNG draw sequence is frozen:
    // every pre-burst workload must replay byte-identically.
    const double op = rng_.next_double();
    if (op < churn_.insert_p || live_.empty()) {
      const Rule fresh = churn_.make_rule(rng_);
      update = frontend_->insert(leaf_, fresh);
      live_.push_back(fresh.id);
      out.ops = 1;
    } else if (op < churn_.insert_p + churn_.delete_p) {
      const size_t victim = rng_.next_below(live_.size());
      update = frontend_->remove(leaf_, live_[victim]);
      live_[victim] = live_.back();
      live_.pop_back();
      out.ops = 1;
    } else {
      const size_t victim = rng_.next_below(live_.size());
      const Rule fresh = churn_.make_rule(rng_);
      update = frontend_->modify(leaf_, live_[victim], fresh);
      live_[victim] = fresh.id;
      out.ops = 2;  // modify = delete + insert
    }
  } else {
    // One geometric-length burst, compiled op by op into one log and
    // netted once into a single barrier-fenced epoch (the same update as
    // folding chain_updates over the ops, in linear time).
    size_t len = 1;
    while (len < std::max<size_t>(burst.max_burst, 1) &&
           rng_.next_bool(burst.continue_p)) {
      ++len;
    }
    const bool teardown =
        rng_.next_bool(burst.delete_burst_p) && live_.size() >= len;
    if (teardown) {
      // Correlated teardown: the newest live rules go first (LIFO), which
      // concentrates the burst in recently-installed address blocks.
      for (size_t i = 0; i < len; ++i) {
        const RuleId victim = live_.back();
        live_.pop_back();
        burst_log_.append(frontend_->remove(leaf_, victim));
        ++out.ops;
      }
    } else {
      const uint32_t bits = std::clamp<uint32_t>(burst.locality_bits, 1, 32);
      const uint32_t base = rng_.next_u32();
      for (size_t i = 0; i < len; ++i) {
        const Rule fresh = localize(churn_.make_rule(rng_), base, bits);
        burst_log_.append(frontend_->insert(leaf_, fresh));
        live_.push_back(fresh.id);
        ++out.ops;
      }
    }
    update = burst_log_.build();
    burst_log_.clear();
  }
  // Empty updates still become (cheap) epochs: the agent must tolerate
  // batches that only carry a DAG no-op and a barrier.
  out.batch = switchsim::to_messages(update);
  ++produced_;
  peak_visible_ = std::max(peak_visible_, frontend_->root().visible_size());
  return out;
}

CompiledWorkload compile_churn_workload(
    const compiler::PolicySpec& spec,
    std::map<std::string, flowspace::FlowTable> tables, const ChurnSpec& churn) {
  ChurnEngine engine(spec, std::move(tables), churn);
  CompiledWorkload workload;
  while (!engine.done()) {
    ChurnEngine::Step step = engine.step();
    workload.epochs.push_back(std::move(step.batch));
    workload.epoch_ops.push_back(step.ops);
    workload.rule_ops += step.ops;
    if (churn.observer) churn.observer(workload.epochs.size(), engine.frontend());
  }
  workload.peak_visible = engine.peak_visible();
  workload.final_rules = engine.current_rules();
  return workload;
}

}  // namespace ruletris::runtime
