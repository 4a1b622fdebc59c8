// Controller of the asynchronous runtime: the one fleet driver. N switch
// sessions, each fed by an EpochSource, built by one session factory and
// driven by one work-stealing dispatch. Three sources: one shared log
// (run), one pre-compiled log per switch (run_fleet free, run_rounds
// barrier-gated; the netplan planner projects different rules onto
// different switches), or compile shards publishing while the sessions
// ship (run_compiled, runtime/sharded_controller.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "flowspace/rule.h"
#include "proto/messages.h"
#include "runtime/config.h"
#include "runtime/session.h"
#include "util/stats.h"

namespace ruletris::runtime {

struct CompileSpec;  // runtime/sharded_controller.h
struct FleetReport;  // runtime/sharded_controller.h

/// A switch's encoded epoch log. Encoding happens once per distinct log;
/// switches sharing a log share the bytes (retransmits and latency charges
/// all operate on the same immutable buffers).
using EncodedLog = std::vector<EncodedEpoch>;

/// Encodes each batch of `epoch_batches` exactly once.
std::shared_ptr<const EncodedLog> encode_log(
    const std::vector<proto::MessageBatch>& epoch_batches);

/// Per-switch fleet workload: the switch's own epoch log plus the rule set
/// its TCAM must converge to.
struct SwitchWorkload {
  std::shared_ptr<const EncodedLog> log;
  std::vector<flowspace::Rule> expected;
};

/// Fleet-level report: per-session stats plus their merged totals (the
/// SessionTotals base: summed counters, merged histograms). Histograms are
/// merged here, at report time — the sessions filled them without any
/// synchronization.
struct RuntimeReport : SessionTotals {
  std::vector<SessionStats> sessions;
  size_t epochs = 0;
  double makespan_ms = 0.0;  // max session makespan (virtual)
  bool all_converged = true;
  bool all_completed = true;  // every session committed its whole log

  /// Sum of per-session log lengths (== sessions * epochs when every switch
  /// replays the same log; per-switch logs may differ in length).
  size_t epochs_applied() const {
    size_t applied = 0;
    for (const SessionStats& s : sessions) applied += s.epochs;
    return applied;
  }

  /// Fleet update throughput in virtual time: committed epoch batches per
  /// second across every switch, over the slowest session's makespan.
  double updates_per_s() const {
    if (makespan_ms <= 0.0) return 0.0;
    return static_cast<double>(epochs_applied()) / (makespan_ms / 1000.0);
  }

  /// Average TCAM entry writes one committed epoch cost — the real,
  /// schedule-dependent charge behind the tcam_ms histogram (writes x
  /// 0.6 ms), not a flat per-update constant.
  double entry_writes_per_epoch() const {
    const size_t applied = epochs_applied();
    if (applied == 0) return 0.0;
    return static_cast<double>(entry_writes) / static_cast<double>(applied);
  }
};

/// Folds per-session stats into the merged fleet report (summed totals, max
/// epochs and makespan, AND of converged and completed). Every Controller
/// entry point reports through it.
RuntimeReport merge_session_stats(std::vector<SessionStats> results);

/// Called by Controller::run_rounds after each fleet barrier: `epoch` is the
/// epoch every switch just committed, `barrier_ms` the fleet time, and
/// `agents[i]` switch i's agent, whose live TCAM the observer may inspect
/// (valid only during the call).
using RoundObserver =
    std::function<void(size_t epoch, double barrier_ms,
                       std::span<const SwitchAgent* const> agents)>;

/// What one claimed step of a dispatch job achieved: nothing (the job is
/// waiting on another), some progress, or the job is finished for good.
enum class SweepStep { kIdle, kProgress, kDone };

/// Runs the fan-out half of the runtime. Pre-compiled logs are encoded
/// exactly once (the encoded bytes are the unit both the channel charge and
/// the wire faults operate on) and shared by every session that replays
/// them — each session a private virtual-time event loop — and the
/// per-session reports are merged. Sessions (and compile shards) run on a
/// ThreadPool when cfg.n_threads > 1; because sessions share nothing
/// mutable and each derives its own fault stream from (fault_seed, session
/// index), the report is bit-identical for every thread count.
class Controller {
 public:
  explicit Controller(const RuntimeConfig& cfg) : cfg_(cfg) {}

  /// `epoch_batches[0]` is epoch 1 (normally the initial table install);
  /// `expected` is the composed table every switch must converge to. All
  /// cfg.n_switches sessions replay the same encoded log.
  RuntimeReport run(const std::vector<proto::MessageBatch>& epoch_batches,
                    const std::vector<flowspace::Rule>& expected);

  /// Per-switch logs: session i replays fleet[i].log and must converge to
  /// fleet[i].expected. cfg.n_switches is ignored (the fleet size rules);
  /// cfg.tcam_capacity == 0 sizes each switch from its own expected set.
  RuntimeReport run_fleet(const std::vector<SwitchWorkload>& fleet);

  /// Per-switch logs driven through barrier-fenced rounds: epoch e may not
  /// leave the controller until every switch has committed epoch e - 1.
  /// After each round every session clock parks at the slowest session's
  /// commit time (the barrier) and `between_rounds` runs. A round that some
  /// switch cannot commit (stall or deadline) ends the run; the report then
  /// has all_completed == false. Every log must have the same length, or
  /// std::invalid_argument is thrown. Bit-identical across thread counts,
  /// like run_fleet.
  RuntimeReport run_rounds(const std::vector<SwitchWorkload>& fleet,
                           const RoundObserver& between_rounds = {});

  /// Compile-in-the-loop fleet (runtime/sharded_controller.h):
  /// cfg.n_switches sessions fed by compile shards that seal and publish
  /// while the sessions ship. Throws std::invalid_argument on a malformed
  /// spec; a failed replay audit or failover verification is reported
  /// (replay_ok / failover_ok), not thrown.
  FleetReport run_compiled(const CompileSpec& compile);

  /// Spec sanity for run_compiled; throws std::invalid_argument.
  void validate_compiled(const CompileSpec& compile) const;

 private:
  using Job = std::function<SweepStep(size_t)>;

  /// The one session factory: seed hash_pair(fault_seed, index + 1), so a
  /// switch's faults never depend on fleet size or scheduling;
  /// cfg.tcam_capacity entries, or room for `expected_rules` when that is 0.
  std::unique_ptr<SwitchSession> make_session(
      size_t index, const EpochSource& source, size_t expected_rules,
      std::span<const AgentBlackout> blackouts = {},
      std::function<bool(uint64_t)> on_readmit = {}) const;

  /// The one dispatch: up to cfg.n_threads symmetric workers sweep every
  /// unfinished session job, then every unfinished shard job, claiming each
  /// through an atomic try-lock, until every session job returned kDone. A
  /// worker whose sessions starve thereby steals compile steps. Any throw,
  /// std::exception or not, stops the sweep and is rethrown as a
  /// std::runtime_error naming the lowest-indexed failed switch (then
  /// shard). Returns the shard steps run off their home worker.
  size_t sweep(size_t n_sessions, const Job& session, size_t n_shards = 0,
               const Job& shard = {}) const;

  RuntimeConfig cfg_;
};

}  // namespace ruletris::runtime
