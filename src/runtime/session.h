// Controller-side switch session: windowed, barrier-acked, fault-tolerant
// replication of the shared epoch log to one switch agent.
//
// State machine (see DESIGN.md "Runtime"):
//
//   [base, next) = unacked epochs in flight, |in flight| <= window
//
//   send      : while next < base + window, transmit epoch `next++`
//   ack(a)    : cumulative — commits every epoch <= a, slides `base`,
//               refills the window (backpressure lives here: epoch e cannot
//               leave the controller before epoch e - window is committed)
//   timeout   : retry timer on the oldest unacked epoch; on firing, every
//               epoch in [base, next) is retransmitted (the agent discards
//               what it already applied and re-acks)
//   restart   : the agent loses its reorder buffer and reports its last
//               applied epoch L via a resync frame; the controller treats L
//               as a cumulative ack and replays (L, next) — the
//               barrier-anchored resync path
//   quarantine: after retry.quarantine_after consecutive silent rounds the
//               session stops retransmitting into the void and probes on a
//               slow cadence instead; the first resync (or progressing ack)
//               that makes it back re-admits the switch through the normal
//               replay machinery, after the warm-boot catch-up check
//
// The whole session runs on a private virtual-time EventQueue with a
// private seeded FaultyWire, so a session's entire life — including every
// fault — is a deterministic function of (config, epoch log), independent
// of other sessions, wall clock and thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "flowspace/rule.h"
#include "proto/codec.h"
#include "runtime/agent.h"
#include "runtime/config.h"
#include "runtime/event_queue.h"
#include "runtime/frame.h"
#include "runtime/wire.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ruletris::runtime {

/// One pre-encoded controller epoch: the shared wire payload plus the
/// message count (for the agent's modelled parse cost). Epoch number e maps
/// to epochs[e - 1]; epoch numbers are 1-based so 0 can mean "nothing
/// applied yet" in acks and resyncs.
struct EncodedEpoch {
  std::shared_ptr<const proto::Bytes> wire;
  size_t messages = 0;
};

/// Where a session's epochs come from. Historically a session replayed a
/// fixed pre-encoded vector; the compiled fleet instead feeds sessions
/// from lock-free publication rings that grow while the session runs, so
/// the log is an interface: a monotone count of sealed epochs, a completion
/// flag, and a per-epoch *virtual ready time* — the compile shard's virtual
/// clock when it sealed the epoch. A session never sends epoch e before
/// ready_ms(e) on its own virtual clock, which is what makes the pipelined
/// compile→transmit overlap show up in virtual time, deterministically.
///
/// Contract: available() is monotone non-decreasing; an available() call
/// *after* complete() returned true returns the final count (callers read
/// complete() first, then available()); ready_ms must be strictly
/// increasing in the epoch number (the horizon rule in pump_published()
/// relies on it to keep event order independent of wall-clock publication
/// timing).
class EpochSource {
 public:
  virtual ~EpochSource() = default;
  /// Number of sealed epochs so far (epoch numbers are 1-based).
  virtual uint64_t available() const = 0;
  /// True once no further epochs will be sealed.
  virtual bool complete() const = 0;
  /// Sealed epoch `e`, e <= available().
  virtual const EncodedEpoch& at(uint64_t e) const = 0;
  /// Virtual time epoch `e` became sendable; strictly increasing in e.
  virtual double ready_ms(uint64_t e) const = 0;
};

/// A fully materialized log: every epoch available and ready at t=0. This
/// is the classic shared-log path; sessions on a VectorEpochSource behave
/// exactly as they did before the source abstraction existed.
class VectorEpochSource final : public EpochSource {
 public:
  explicit VectorEpochSource(const std::vector<EncodedEpoch>& epochs)
      : epochs_(epochs) {}
  uint64_t available() const override { return epochs_.size(); }
  bool complete() const override { return true; }
  const EncodedEpoch& at(uint64_t e) const override { return epochs_[e - 1]; }
  double ready_ms(uint64_t) const override { return 0.0; }

 private:
  const std::vector<EncodedEpoch>& epochs_;
};

/// Every counter a session accumulates, declared once. Each entry is
/// X(name); SessionTotals expands the list into its fields, its sum and its
/// equality, so a new counter is a one-line change here.
#define RULETRIS_SESSION_COUNTERS(X)                                              \
  X(data_frames_sent)        /* first sends + retransmits + resync replays */     \
  X(retransmits)             /* timeout-driven re-sends */                        \
  X(resync_replays)          /* frames re-sent on the resync path */              \
  X(resyncs)                 /* resync requests received */                       \
  X(stale_resyncs)           /* resyncs anchored below base_ (racing restarts) */ \
  X(restarts)                /* agent restarts */                                 \
  X(timeouts)                /* retry timer firings that found unacked epochs */  \
  X(duplicates)              /* frames the agent discarded as already applied */  \
  X(acks)                    /* ack frames received */                            \
  X(nacks)                   /* corrupted data frames the agent NACKed */         \
  X(nack_retransmits)        /* re-sends triggered by NACKs */                    \
  X(crashes)                 /* firmware crashes mid-transaction */               \
  X(roll_forwards)           /* recoveries that committed a sealed txn */         \
  X(recovered_writes)        /* TCAM writes spent undoing torn chains */          \
  X(apply_failures)          /* firmware rejections (should be 0) */              \
  X(table_full)              /* updates rejected with ApplyStatus::kTableFull */  \
  X(rolled_back)             /* updates undone with ApplyStatus::kRolledBack */   \
  X(entry_writes)            /* TCAM entry writes across applied epochs */        \
  X(moves)                   /* relocation subset: what the DAG schedule costs */ \
  X(quarantines)             /* silent-round escalations that benched the switch */\
  X(readmissions)            /* quarantined sessions brought back via resync */   \
  X(probe_sends)             /* liveness probes sent while quarantined */         \
  X(blackout_drops)          /* frames that arrived while the agent was dark */   \
  X(readmit_failures)        /* warm-boot catch-up verifications that failed */   \
  X(rejoin_audit_violations) /* structural audits failed on rejoin */           \
  X(deadline_misses)         /* sessions stopped by knobs.deadline_ms */

/// Every latency histogram a session fills, declared once. Each entry is
/// X(name, clock): SessionTotals holds `util::Histogram name##_ms`, and the
/// clock says whether it is reproducible virtual time (kVirtual) or host
/// wall clock (kWall, diagnostic only, so left out of same_virtual and of
/// the report rows).
#define RULETRIS_SESSION_HISTOGRAMS(X)                                          \
  X(ack, kVirtual)     /* first send of an epoch -> ack committing it */        \
  X(channel, kVirtual) /* per delivered data frame: send -> arrival */          \
  X(firmware, kWall)   /* firmware apply time on this host */                   \
  X(tcam, kVirtual)    /* modelled entry writes x 0.6 ms */                     \
  X(rejoin, kVirtual)  /* quarantine entry -> re-admission */

/// Which clock a histogram (or any report field) is measured on.
enum class Clock { kVirtual, kWall };

/// The summable part of a session's outcome: the counters and histograms
/// above, each expanded from its list into the fields, the sum and the
/// equality. Sessions fill them without synchronization; the controller
/// sums them at report time.
struct SessionTotals {
#define RULETRIS_DECLARE_COUNTER(name) size_t name = 0;
  RULETRIS_SESSION_COUNTERS(RULETRIS_DECLARE_COUNTER)
#undef RULETRIS_DECLARE_COUNTER
#define RULETRIS_DECLARE_HISTOGRAM(name, clock) util::Histogram name##_ms;
  RULETRIS_SESSION_HISTOGRAMS(RULETRIS_DECLARE_HISTOGRAM)
#undef RULETRIS_DECLARE_HISTOGRAM

  /// Sums every counter and merges every histogram.
  SessionTotals& operator+=(const SessionTotals& other);

  /// Every counter and every kVirtual histogram equal: all but the
  /// wall-clock ones, so this is what must hold across thread counts.
  bool same_virtual(const SessionTotals& other) const;
};

struct SessionStats : SessionTotals {
  size_t epochs = 0;
  FaultyWire::Counters wire;     // raw wire-level fault counters
  double makespan_ms = 0.0;      // virtual time until every epoch was committed
  bool completed = false;        // log drained before the virtual deadline
  bool converged = false;        // final TCAM == expected rules, layout valid
  bool quarantined_end = false;  // still quarantined when the run ended
  /// Final TCAM contents: (address, rule id) of every occupied entry, in
  /// ascending address order.
  std::vector<std::pair<size_t, flowspace::RuleId>> tcam_layout;
};

class SwitchSession {
 public:
  /// Feeds the session from any source: a fixed log (VectorEpochSource) or
  /// the compile shards' growing rings. `source` must outlive the session.
  /// Drive with start() + pump_published(); run() also works once the
  /// source is complete.
  SwitchSession(const SessionConfig& config, const EpochSource& source);

  /// Drives the session to completion (every epoch acked) or to the virtual
  /// deadline, then verifies convergence: the agent's TCAM must hold
  /// exactly `expected` (id, match and actions) and satisfy every DAG
  /// constraint.
  SessionStats run(const std::vector<flowspace::Rule>& expected);

  // ---- Stepped (fleet-gated) driving -----------------------------------
  // Controller::run_rounds paces N sessions through barrier-fenced rounds:
  // raise the send gate to round e, pump each session until e is committed,
  // then park every clock at the slowest peer's commit time.
  // run() above is exactly start() + pump-everything + finalize().

  /// Arms timers/restarts and opens the initial window (bounded by the send
  /// gate). Call once, before any run_until_committed().
  void start();

  /// Epochs above `max_epoch` may not leave the controller. Raising the
  /// gate refills the window immediately. Default: no gate.
  void set_send_limit(uint64_t max_epoch);

  /// Pumps the event loop until epoch `epoch` is committed (cumulatively
  /// acked). Returns whether it is: false if the session stalled or hit its
  /// deadline first. Epochs beyond the send gate never commit — gate first.
  bool run_until_committed(uint64_t epoch);

  /// Parks the session's virtual clock at `t` (a fleet round barrier).
  void advance_clock(double t) { events_.advance_to(t); }

  // ---- Pipelined (growing-source) driving ------------------------------
  // Controller::run_compiled's dispatch workers pump sessions whose logs
  // are still being compiled. pump_published() runs events and gated first
  // sends in strict virtual-time order, but never past the source's sealed
  // horizon: with epochs still unsealed, their (strictly later) ready times
  // could demand a send below any event beyond the horizon, so the session
  // *wall-blocks* there instead of guessing — which is exactly what makes
  // the virtual trajectory a pure function of the workload, bit-identical
  // across thread counts and scheduling. Ties between a gated send and an
  // event at the same virtual time resolve send-first, deterministically.

  /// Makes as much progress as the sealed horizon allows. Returns true if
  /// any event ran or any epoch was sent; false means the session is done,
  /// starved on an unsealed epoch (caller should go compile), or past its
  /// deadline.
  bool pump_published();

  /// Collects final stats and verifies convergence against `expected`.
  SessionStats finalize(const std::vector<flowspace::Rule>& expected);

  double now_ms() const { return events_.now(); }
  uint64_t committed() const { return base_ - 1; }
  bool done() const { return done_; }

  const SwitchAgent& agent() const { return agent_; }

 private:
  bool past_deadline();
  void send_window();
  uint64_t highest_sendable() const;
  void maybe_finish();
  enum class SendKind { kFirst, kRetransmit, kResyncReplay, kNackResend };
  void send_epoch(uint64_t epoch, SendKind kind);
  void send_ack_frame(FrameKind kind, uint64_t epoch, double at_ms);
  void on_data_delivered(uint64_t epoch, double send_ms,
                         const std::shared_ptr<const proto::Bytes>& payload);
  void handle_ingest(uint64_t epoch, const SwitchAgent::Ingest& ingest);
  void on_crash(double crash_ms);
  void on_recovered();
  void on_ack(uint64_t acked);
  void on_nack(uint64_t epoch);
  void on_resync(uint64_t last_applied);
  void advance_base(uint64_t acked);
  double retry_interval_ms();
  void arm_timer();
  void on_timer(uint64_t generation);
  void enter_quarantine();
  void readmit(uint64_t anchor);
  void arm_probe();
  void on_probe(uint64_t generation);
  void on_probe_delivered();
  bool agent_dark(double t) const;
  void schedule_restart();
  void on_restart();
  void finish();
  void verify(const std::vector<flowspace::Rule>& expected);

  SessionConfig cfg_;
  const EpochSource* source_;
  EventQueue events_;
  FaultyWire wire_;
  util::Rng restart_rng_;
  util::Rng backoff_rng_;  // jitter for escalated retries and probes
  SwitchAgent agent_;
  uint64_t base_ = 1;          // oldest uncommitted epoch
  uint64_t next_to_send_ = 1;  // next epoch to leave the controller
  uint64_t send_limit_ = UINT64_MAX;  // fleet round gate (inclusive)
  std::vector<double> first_send_ms_;  // per epoch, for ack latency
  uint64_t timer_generation_ = 0;
  size_t silent_rounds_ = 0;   // consecutive retry rounds without ack progress
  double loss_ewma_ = 0.0;     // per-session loss estimate in [0, 1]
  bool quarantined_ = false;
  double quarantine_enter_ms_ = 0.0;
  uint64_t probe_generation_ = 0;
  bool done_ = false;
  SessionStats stats_;
};

}  // namespace ruletris::runtime
