#include "runtime/agent.h"

#include <algorithm>
#include <variant>

#include "proto/messages.h"
#include "tcam/tcam.h"

namespace ruletris::runtime {

SwitchAgent::SwitchAgent(size_t tcam_capacity, const proto::ChannelModel& channel,
                         double crash_p, uint64_t crash_seed)
    : switch_(switchsim::FirmwareMode::kDag, tcam_capacity),
      channel_(channel),
      crash_p_(crash_p),
      crash_rng_(crash_seed) {
  // Every apply is a recoverable write-ahead transaction on this agent's
  // firmware; the crash hook draws one seeded Bernoulli per journaled op,
  // so a session's crash schedule is a pure function of its seed.
  tcam::DagScheduler& dag = switch_.dag_firmware();
  dag.set_journal(&journal_);
  if (crash_p_ > 0.0) {
    dag.set_crash_hook([this] { return crash_rng_.next_double() < crash_p_; });
  }
}

SwitchAgent::Ingest SwitchAgent::on_data(
    uint64_t epoch, const std::shared_ptr<const proto::Bytes>& payload,
    double now_ms) {
  Ingest result;
  if (down_) {
    // The agent process is dead between the crash and the end of recovery:
    // frames fall on the floor exactly like a powered-off switch.
    result.dropped = true;
    result.done_ms = now_ms;
    return result;
  }
  if (!proto::checksum_ok(*payload)) {
    // Bit-flipped in transit: never parsed, never buffered. The session
    // NACKs the epoch so the controller retransmits the pristine bytes.
    ++corrupt_frames_;
    result.corrupt = true;
    result.done_ms = std::max(now_ms, busy_until_ms_);
    return result;
  }
  if (epoch <= last_applied_) {
    // Duplicate or timeout-driven retransmit of an epoch already committed:
    // discard, but let the session re-ack so a lost ack heals.
    ++duplicates_;
    result.duplicate = true;
    result.done_ms = std::max(now_ms, busy_until_ms_);
    return result;
  }

  // emplace keeps the first buffered copy if a duplicate is already waiting.
  buffer_.emplace(epoch, payload);

  double t = std::max(now_ms, busy_until_ms_);
  for (auto it = buffer_.find(last_applied_ + 1); it != buffer_.end();
       it = buffer_.find(last_applied_ + 1)) {
    // Only frames that passed checksum_ok above are buffered.
    const proto::MessageBatch batch = proto::decode_verified_batch(*it->second);

    AppliedEpoch applied;
    applied.epoch = it->first;
    applied.messages = batch.size();
    // Acks are barrier-anchored: every epoch batch the controller emits is
    // fenced, and the ack fires only once the fence has been applied.
    const bool fenced =
        !batch.empty() && std::holds_alternative<proto::Barrier>(batch.back());

    switchsim::UpdateMetrics m;
    try {
      m = switch_.apply(batch);
    } catch (const tcam::CrashError&) {
      // Firmware died mid-transaction: the TCAM is torn (the journal holds
      // the open transaction), the volatile reorder buffer is gone, and no
      // ack leaves for this epoch. The session drives recovery.
      ++crashes_;
      down_ = true;
      crash_epoch_ = it->first;
      buffer_.clear();
      result.crashed = true;
      result.done_ms = t;
      busy_until_ms_ = std::max(busy_until_ms_, t);
      return result;
    }
    applied.ok = m.ok && fenced;
    applied.status = m.status;
    applied.firmware_ms = m.firmware_ms;
    applied.tcam_ms = m.tcam_ms;
    applied.entry_writes = m.entry_writes;
    applied.moves = m.moves;
    // Virtual cost of applying: per-message parse/dispatch plus the
    // modelled TCAM write time (wall-clock firmware time stays diagnostic
    // so virtual timelines are reproducible).
    applied.apply_ms = channel_.parse_ms(batch.size()) + m.tcam_ms;
    t += applied.apply_ms;

    result.applied.push_back(applied);
    last_applied_ = it->first;
    buffer_.erase(it);
  }

  busy_until_ms_ = std::max(busy_until_ms_, t);
  result.done_ms = t;
  return result;
}

void SwitchAgent::restart() {
  // Recovery before anything else: if a crash tore a transaction and a
  // scheduled restart wins the race, the restart path must still repair the
  // TCAM before its resync anchor (last_applied) means anything.
  switch_.dag_firmware().recover();
  buffer_.clear();
  ++restarts_;
}

SwitchAgent::Recovery SwitchAgent::recover_and_restart() {
  Recovery recovery;
  const tcam::DagScheduler::RecoveryResult r = switch_.dag_firmware().recover();
  recovery.undone_ops = r.undone_ops;
  recovery.undone_writes = r.undone_writes;
  recovery.recovery_ms =
      static_cast<double>(r.undone_writes) * tcam::kEntryWriteMs;
  if (r.outcome == tcam::DagScheduler::RecoveryResult::Outcome::kRolledForward) {
    // The torn transaction had fully executed: the crashed epoch is durably
    // applied, so the resync anchor must include it.
    recovery.rolled_forward = true;
    last_applied_ = std::max(last_applied_, crash_epoch_);
  }
  buffer_.clear();
  ++restarts_;
  return recovery;
}

}  // namespace ruletris::runtime
