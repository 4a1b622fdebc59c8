// Compile half of the runtime: an incremental update stream -> epoch log.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/churn_log.h"
#include "compiler/policy_spec.h"
#include "flowspace/rule.h"
#include "proto/messages.h"
#include "util/rng.h"

namespace ruletris::compiler {
class RuleTrisCompiler;
}

namespace ruletris::runtime {

/// A compiled controller workload: epoch 1 installs the initial composed
/// table, every later epoch is one incrementally-compiled, barrier-fenced
/// update batch. The controller fans this log out to every switch session.
struct CompiledWorkload {
  std::vector<proto::MessageBatch> epochs;
  /// Composed table the compiler holds after the last epoch — the state
  /// every switch TCAM must converge to.
  std::vector<flowspace::Rule> final_rules;
  /// High-water mark of the composed table across the stream.
  size_t peak_visible = 0;
  /// Rule-level operations per epoch (insert/delete = 1, modify = 2; the
  /// initial install counts one per installed rule; a burst counts its
  /// length). epoch_ops[e - 1] belongs to epoch e; rule_ops is the total —
  /// the numerator of the fleet harness's updates/s.
  std::vector<size_t> epoch_ops;
  size_t rule_ops = 0;

  size_t suggested_capacity() const {
    return peak_visible + peak_visible / 8 + 128;
  }
};

/// Bursty, locality-heavy churn. Real controller update streams are not
/// one-op-per-epoch Poisson processes: a route flap or tenant deploy lands
/// as a correlated burst of rules sharing an address block, then often tears
/// the same block down. With `enabled`, each churn epoch becomes one
/// geometric-length burst compiled incrementally and chained into a single
/// barrier-fenced batch: insert bursts share a dst /locality_bits block
/// (hammering one compile shard, the worst case for prefix sharding), and
/// with probability delete_burst_p a burst instead deletes the most recently
/// inserted rules (LIFO teardown locality).
struct BurstSpec {
  bool enabled = false;
  double continue_p = 0.75;      // geometric length: mean 1 / (1 - p)
  size_t max_burst = 32;         // hard cap on ops per burst
  uint32_t locality_bits = 12;   // inserts share a dst /locality_bits block
  double delete_burst_p = 0.25;  // burst tears down the newest live rules
};

/// Randomized churn parameters for compile_churn_workload.
struct ChurnSpec {
  std::string leaf;      // member table receiving the churn; "" = first leaf
  size_t updates = 200;  // insert/delete/modify operations
  uint64_t seed = 1;
  double insert_p = 0.35;  // op mix; remainder after insert+delete is modify
  double delete_p = 0.30;
  BurstSpec burst;         // off by default: classic one-op epochs
  /// Replacement-rule source; default: monitoring-profile rules.
  std::function<flowspace::Rule(util::Rng&)> make_rule;
  /// Called after each epoch is pushed — after the initial compile (epoch 1)
  /// and after every incremental update — with the epoch number and the live
  /// front-end. The warm-boot freezer (runtime/warm_boot.h) hangs off this
  /// to seal per-epoch frozen deltas without the workload layer knowing
  /// about serialization; the front-end is mutable so an observer can start
  /// the root's churn recording.
  std::function<void(size_t epoch, compiler::RuleTrisCompiler&)> observer;
};

/// Stepwise churn compiler: produces exactly the epoch stream
/// compile_churn_workload packages, but one epoch per step() call. The
/// compiled fleet's shards (Controller::run_compiled) hold one engine per
/// switch and interleave steps from many switches under one shard clock —
/// an epoch can be sealed, shipped and even committed on its switch while
/// later epochs are still uncompiled. Deterministic in (spec, tables,
/// churn.seed); compile_churn_workload below is just "step until done".
class ChurnEngine {
 public:
  /// Compiles the initial tables (epoch 1 is not produced yet — the first
  /// step() packages it, so shard clocks can charge it like any epoch).
  ChurnEngine(const compiler::PolicySpec& spec,
              std::map<std::string, flowspace::FlowTable> tables,
              const ChurnSpec& churn);
  ~ChurnEngine();

  /// Epochs this engine will produce: the initial install + one per update.
  size_t total_epochs() const { return churn_.updates + 1; }
  size_t produced() const { return produced_; }
  bool done() const { return produced_ >= total_epochs(); }

  struct Step {
    proto::MessageBatch batch;
    size_t ops = 0;  // rule-level operations the epoch carries
  };
  /// Compiles and packages the next epoch. Must not be called when done().
  Step step();

  /// Live front-end (frozen capture, or churn recording, after each step).
  const compiler::RuleTrisCompiler& frontend() const { return *frontend_; }
  compiler::RuleTrisCompiler& frontend() { return *frontend_; }
  /// Composed table after the steps so far.
  std::vector<flowspace::Rule> current_rules() const;
  size_t peak_visible() const { return peak_visible_; }

 private:
  ChurnSpec churn_;  // make_rule resolved to a concrete generator
  std::string leaf_;
  std::unique_ptr<compiler::RuleTrisCompiler> frontend_;
  std::vector<flowspace::RuleId> live_;
  compiler::ChurnLog burst_log_;  // one burst's op updates, netted once
  util::Rng rng_;
  size_t produced_ = 0;
  size_t peak_visible_ = 0;
};

/// Runs the RuleTris front-end over a randomized insert/delete/modify
/// stream against `spec`, packaging the initial compile plus every
/// incremental update as one epoch each. Deterministic in (spec, tables,
/// churn.seed).
CompiledWorkload compile_churn_workload(
    const compiler::PolicySpec& spec,
    std::map<std::string, flowspace::FlowTable> tables, const ChurnSpec& churn);

}  // namespace ruletris::runtime
