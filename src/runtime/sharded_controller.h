// Compile-in-the-loop fleet: the compile pipeline behind
// Controller::run_compiled. The driver is runtime::Controller — its session
// factory, its work-stealing dispatch and its merge — so this file only
// adds the compile side: K compile shards each run the full incremental
// min-DAG pipeline over the switches they own, one ChurnEngine per switch
// stepped round-robin under a per-shard virtual compile clock. That removes
// the "compile first, replicate after" barrier of the pre-compiled paths.
// Every sealed epoch is published lock-free through a
// frozen::PublishRing — the RTDZ delta blob is the shard-handoff currency:
// the shard seals each step's delta straight from the churn the engine's
// root recorded (frozen::seal_recorded; only the epoch-1 base is a full
// capture), seals (wire image, ops, ready time, delta) and bumps the
// ring's atomic epoch counter; switch sessions consume with acquire loads
// and zero locks.
//
// In the Controller's dispatch every worker sweeps every session (pump as
// far as the sealed horizon allows) and every shard (compile a quantum of
// epochs), claiming each via an atomic try-lock. A worker that finds its
// sessions starved steals compile steps from any shard.
//
// Determinism: the whole report — per-switch TCAM layouts, wire bytes,
// RTDZ delta chains, virtual makespans — is a pure function of the spec,
// bit-identical for every n_threads. Three mechanisms carry that property:
//   * per-switch rule-id namespaces (flowspace::ScopedRuleIdNamespace), so
//     id allocation never observes cross-switch interleaving;
//   * per-shard virtual compile clocks advanced by a modelled cost per
//     epoch, stepped in a fixed round-robin order, so sealed ready times
//     are schedule-independent;
//   * the session-side horizon rule (SwitchSession::pump_published), so
//     wall-clock publication timing decides only where a session blocks,
//     never the virtual order of its events.
// run_compiled() self-checks the sharding (cross-shard delta replay) and
// the bench harness cross-checks whole-fleet fingerprints across thread
// counts.
//
// Fault tolerance (see DESIGN.md §15): a ChaosSchedule kills compile shards
// at virtual times — surviving shards adopt the orphaned switches by
// verifying the hash-chained RTDZ delta blobs already published, rebuilding
// the compile engine from the pristine task (ids replay identically inside
// the switch's namespace), and resuming publication into a fresh ring the
// session's source splices in at the published frontier. Adoption points
// are virtual-time deterministic via a compile-side horizon rule: an
// adoptable shard never steps past an unresolved kill time, so wall-clock
// kill processing decides only where a shard blocks, never what it seals.
// Sessions quarantine unreachable switches (SessionKnobs.retry) and
// re-admit them through the warm-boot path; quarantined switches are
// excluded from the fleet makespan.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/policy_spec.h"
#include "flowspace/rule.h"
#include "frozen/frozen.h"
#include "proto/channel.h"
#include "runtime/config.h"
#include "runtime/controller.h"
#include "runtime/session.h"
#include "runtime/workload.h"

namespace ruletris::runtime {

/// One sealed fleet epoch — the unit a compile shard hands a session.
struct SealedEpoch {
  EncodedEpoch wire;         // encoded batch + message count
  size_t ops = 0;            // rule-level operations the epoch carries
  double ready_vt_ms = 0.0;  // shard virtual compile clock at seal
  uint64_t delta_hash = 0;   // mix of the epoch's RTDZ delta blob bytes
  /// The delta blob itself, retained for replay-audited switches (every
  /// audit_stride-th) and for switches that may need it for failover
  /// reconstruction or quarantine re-admission (chaos targets); empty
  /// elsewhere — the hash chain still covers every epoch of every switch.
  std::shared_ptr<const frozen::Bytes> delta;
};

/// One switch's compile job: policy shape, initial tables, churn stream.
struct SwitchTask {
  compiler::PolicySpec spec;
  std::map<std::string, flowspace::FlowTable> tables;
  ChurnSpec churn;
};

/// Compile side of a compiled fleet (Controller::run_compiled): shard
/// geometry, the per-switch workload, the modelled compile cost, the replay
/// audit and the chaos schedule. Fleet size, dispatch threads, session
/// knobs, fault seed and TCAM size come from the Controller's RuntimeConfig.
struct CompileSpec {
  size_t n_shards = 2;  // compile shards; switch i belongs to shard i % K

  // Default workload (used when make_task is unset): per-switch
  // monitor ∥ router composition churned on the monitor leaf with bursty,
  // locality-heavy updates. Fully determined by (seed, switch index).
  size_t updates_per_switch = 32;  // churn epochs; each a burst when enabled
  size_t initial_monitor = 24;     // initial monitor-leaf rules
  size_t initial_router = 16;      // initial router-leaf rules
  BurstSpec burst{.enabled = true};
  uint64_t seed = 1;

  /// Overrides the default workload; called once per switch at init (cheap:
  /// table generation only, compilation happens on the shards). Runs inside
  /// the switch's private rule-id namespace.
  std::function<SwitchTask(size_t sw)> make_task;

  // Modelled compile cost, advancing the owning shard's virtual clock per
  // sealed epoch. Strictly positive so per-ring ready times strictly
  // increase (the horizon rule requires it).
  double compile_base_ms = 0.05;
  double compile_per_op_ms = 0.02;

  /// Every audit_stride-th switch runs the differential oracle: each sealed
  /// (recorded) delta blob must byte-equal the diff of consecutive policy
  /// captures, and the published blobs must replay the epoch-1 base image
  /// to the final capture when its stream closes. Any mismatch fails the
  /// run (replay_ok). 0 disables the audit.
  size_t audit_stride = 16;

  /// Seeded fault schedule: shard kills on virtual compile clocks, agent
  /// blackouts on session virtual clocks. Empty = clean run; the fault
  /// layer costs nothing when unused.
  ChaosSchedule chaos;
  /// Fraction of the modelled compile cost an adopting shard pays per
  /// epoch to re-step an orphaned switch's engine to its published
  /// frontier (replaying known updates is cheaper than compiling fresh).
  double failover_replay_factor = 0.25;
};

/// A whole compiled fleet in one value: the RuntimeConfig the Controller
/// runs with plus the CompileSpec it compiles, run as
/// `Controller(spec).run_compiled(spec)`. Fleet defaults differ from
/// RuntimeConfig's: clean wire with window 8 (throughput mode), 2048-entry
/// TCAMs, one dispatch thread.
struct FleetSpec : RuntimeConfig, CompileSpec {
  FleetSpec() {
    n_threads = 1;
    knobs.window = 8;
    tcam_capacity = 2048;
  }
};

struct FleetReport {
  RuntimeReport runtime;  // merged per-session stats (fault counters, hists)
  size_t switches = 0;
  size_t shards = 0;
  size_t threads = 0;

  size_t rule_ops = 0;        // total rule-level updates compiled fleet-wide
  /// Slowest *active* session's virtual commit time. Quarantined switches
  /// are excluded — one dead box may not hold the fleet number hostage;
  /// their own rejoin latencies are reported separately.
  double makespan_ms = 0.0;
  double compile_vt_ms = 0.0; // slowest shard's final virtual compile clock
  double wall_ms = 0.0;       // real time the run took (diagnostic)

  size_t shard_steps = 0;   // epochs sealed across all shards
  size_t steals = 0;        // shard steps run by a non-home worker
  size_t starved_pumps = 0; // session pumps that hit the sealed horizon

  /// Order-independent digest of every switch's final TCAM layout plus its
  /// deterministic session counters — the value the determinism self-check
  /// compares across thread counts.
  uint64_t fleet_fingerprint = 0;
  /// Digest of every switch's RTDZ delta-hash chain (covers the full
  /// compile output, sealed epoch by sealed epoch).
  uint64_t delta_fingerprint = 0;

  size_t replay_audits = 0;  // switches whose delta chain was replayed
  /// Every audited switch: each recorded delta encoded like the diffed one,
  /// and the replay reproduced the final image.
  bool replay_ok = true;
  /// Incremental cover tests that hit the fragment limit and kept a
  /// conservative edge (compiler::PolicyNode::cover_overflows), fleet-wide.
  size_t cover_overflows = 0;

  // Fault-tolerance outcome (all zero / true on a clean run).
  size_t shard_kills = 0;     // scheduled kills that actually fired
  size_t kills_escaped = 0;   // shards that finished before their kill time
  size_t failovers = 0;       // orphaned switches adopted by survivors
  bool failover_ok = true;    // every adoption: blob chain verified and the
                              // rebuilt engine matched the replayed image
  size_t failover_epochs = 0; // epochs re-stepped during adoptions
  size_t active_switches = 0; // never-quarantined sessions (makespan basis)
  size_t active_rule_ops = 0; // their compiled rule ops (throughput basis)
  util::Histogram failover_ms;  // shard kill -> adoption complete (virtual)

  /// Order-independent digest of every switch's final TCAM layout alone
  /// (no counters): the value chaos runs compare against clean runs — the
  /// bit-identical-convergence claim.
  uint64_t layout_fingerprint = 0;

  /// Aggregate sustained rule-update throughput in virtual time: active
  /// switches' compiled rule-level operations over the slowest active
  /// switch's commit time (on a clean run that is every switch).
  double updates_per_s() const {
    if (makespan_ms <= 0.0) return 0.0;
    const size_t ops = runtime.quarantines > 0 ? active_rule_ops : rule_ops;
    return static_cast<double>(ops) / (makespan_ms / 1000.0);
  }
};

/// The compiled fleet's former driver name, kept as a forwarder only
/// because the standalone perfbench program still names it.
class ShardedController {
 public:
  explicit ShardedController(FleetSpec spec) : spec_(std::move(spec)) {}
  FleetReport run() { return Controller(spec_).run_compiled(spec_); }
  static void validate(const FleetSpec& spec) {
    Controller(spec).validate_compiled(spec);
  }

 private:
  FleetSpec spec_;
};

}  // namespace ruletris::runtime
