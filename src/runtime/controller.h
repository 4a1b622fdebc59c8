// Controller of the asynchronous runtime: N switch sessions, each driven by
// an epoch log. Historically every session replayed one shared log; the
// netplan planner projects *different* rules onto different switches, so the
// fleet entry point takes one (log, expected) workload per switch. The
// shared-log run() is now a thin wrapper: encode once, hand every switch
// the same immutable bytes.
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
/// epochs and makespan, AND of converged and completed). Shared by
/// Controller and ShardedController.
RuntimeReport merge_session_stats(std::vector<SessionStats> results);

/// Called by Controller::run_rounds after each fleet barrier: `epoch` is the
/// epoch every switch just committed, `barrier_ms` the fleet time, and
/// `agents[i]` switch i's agent, whose live TCAM the observer may inspect
/// (valid only during the call).
using RoundObserver =
    std::function<void(size_t epoch, double barrier_ms,
                       std::span<const SwitchAgent* const> agents)>;

/// Runs the fan-out half of the runtime. The controller encodes each epoch
/// batch exactly once (the encoded bytes are the unit both the channel
/// charge and the wire faults operate on), replicates the log to every
/// switch session — each session a private virtual-time event loop — and
/// merges the per-session reports. Session loops execute on a ThreadPool
/// when cfg.n_threads > 1; because sessions share nothing mutable and each
/// derives its own fault stream from (fault_seed, session index), the
/// report is bit-identical for every thread count.
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

 private:
  std::unique_ptr<SwitchSession> make_session(const SwitchWorkload& w,
                                              size_t index) const;

  RuntimeConfig cfg_;
};

}  // namespace ruletris::runtime
