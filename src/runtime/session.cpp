#include "runtime/session.h"

#include <algorithm>

#include "tcam/auditor.h"
#include "tcam/tcam.h"
#include "util/hash.h"

namespace ruletris::runtime {

SessionTotals& SessionTotals::operator+=(const SessionTotals& other) {
#define RULETRIS_ADD_COUNTER(name) name += other.name;
  RULETRIS_SESSION_COUNTERS(RULETRIS_ADD_COUNTER)
#undef RULETRIS_ADD_COUNTER
  ack_ms.merge(other.ack_ms);
  channel_ms.merge(other.channel_ms);
  firmware_ms.merge(other.firmware_ms);
  tcam_ms.merge(other.tcam_ms);
  rejoin_ms.merge(other.rejoin_ms);
  return *this;
}

bool SessionTotals::same_virtual(const SessionTotals& other) const {
#define RULETRIS_SAME_COUNTER(name) name == other.name &&
  return RULETRIS_SESSION_COUNTERS(RULETRIS_SAME_COUNTER)
         ack_ms == other.ack_ms && channel_ms == other.channel_ms &&
         tcam_ms == other.tcam_ms && rejoin_ms == other.rejoin_ms;
#undef RULETRIS_SAME_COUNTER
}

SwitchSession::SwitchSession(const SessionConfig& config,
                             const std::vector<EncodedEpoch>& epochs)
    : SwitchSession(config, std::make_unique<VectorEpochSource>(epochs),
                    nullptr) {}

SwitchSession::SwitchSession(const SessionConfig& config, const EpochSource& source)
    : SwitchSession(config, nullptr, &source) {}

SwitchSession::SwitchSession(const SessionConfig& config,
                             std::unique_ptr<VectorEpochSource> owned,
                             const EpochSource* source)
    : cfg_(config),
      owned_source_(std::move(owned)),
      source_(owned_source_ ? owned_source_.get() : source),
      wire_(config.knobs.channel, config.knobs.faults,
            util::mix64(config.seed ^ 0x71c3)),
      // A separate restart stream: restart times must not shift when the
      // frame count changes (different window sizes, retransmit patterns).
      restart_rng_(util::mix64(config.seed ^ 0x7e57a27)),
      // Backoff jitter has its own stream too: escalated retries must not
      // perturb restart or wire draws (and vice versa).
      backoff_rng_(util::mix64(config.seed ^ 0xbacc0ff5)),
      // The crash stream is separate again: one Bernoulli per journaled
      // firmware op, a pure function of the session seed and the op
      // sequence, independent of wire traffic.
      agent_(config.tcam_capacity, config.knobs.channel,
             config.knobs.faults.crash_p, util::mix64(config.seed ^ 0xc4a54)) {
  if (cfg_.knobs.window == 0) cfg_.knobs.window = 1;
  first_send_ms_.assign(source_->available() + 1, -1.0);
  stats_.epochs = source_->available();
}

/// The deadline is a safety net, not control: a session past it stops in
/// whichever mode drives it, and the first check that finds it there counts
/// the session's one deadline miss.
bool SwitchSession::past_deadline() {
  if (events_.now() <= cfg_.knobs.deadline_ms) return false;
  stats_.deadline_misses = 1;
  return true;
}

SessionStats SwitchSession::run(const std::vector<flowspace::Rule>& expected) {
  start();
  while (!done_ && events_.run_next()) {
    if (!done_ && past_deadline()) break;
  }
  return finalize(expected);
}

void SwitchSession::start() {
  if (source_->complete() && source_->available() == 0) {
    finish();
    return;
  }
  send_window();
  arm_timer();
  schedule_restart();
}

void SwitchSession::set_send_limit(uint64_t max_epoch) {
  send_limit_ = max_epoch;
  // Raising the gate opens window slots immediately (the retry timer is
  // already armed; a lost first send is retransmitted like any other).
  if (!done_) send_window();
}

bool SwitchSession::run_until_committed(uint64_t epoch) {
  while (!done_ && base_ <= epoch) {
    if (!events_.run_next()) return false;        // stalled: nothing queued
    // The event just run may have committed `epoch`: only a session still
    // short of it stops here.
    if (!done_ && base_ <= epoch && past_deadline()) break;
  }
  return done_ || base_ > epoch;
}

SessionStats SwitchSession::finalize(const std::vector<flowspace::Rule>& expected) {
  stats_.epochs = source_->available();
  stats_.makespan_ms = done_ ? stats_.makespan_ms : events_.now();
  stats_.wire = wire_.counters();
  stats_.restarts = agent_.restarts();
  stats_.duplicates = agent_.duplicates();
  stats_.quarantined_end = quarantined_;
  const tcam::Tcam& device = agent_.device().tcam();
  stats_.tcam_layout.clear();
  for (size_t addr = 0; addr < device.capacity(); ++addr) {
    if (auto id = device.at(addr)) stats_.tcam_layout.emplace_back(addr, *id);
  }
  verify(expected);
  return stats_;
}

uint64_t SwitchSession::highest_sendable() const {
  return std::min<uint64_t>(source_->available(), send_limit_);
}

void SwitchSession::send_window() {
  if (quarantined_) return;  // probes own the wire until re-admission
  const uint64_t highest = highest_sendable();
  while (next_to_send_ <= highest && next_to_send_ < base_ + cfg_.knobs.window) {
    // A sealed-but-not-yet-virtually-ready epoch stays gated here; the
    // pump_published() loop sends it once the clock reaches its ready time.
    // Complete vector logs have ready 0, so this never gates the classic
    // path.
    if (source_->ready_ms(next_to_send_) > events_.now()) break;
    send_epoch(next_to_send_, SendKind::kFirst);
    ++next_to_send_;
  }
}

void SwitchSession::send_epoch(uint64_t epoch, SendKind kind) {
  ++stats_.data_frames_sent;
  if (kind == SendKind::kRetransmit) ++stats_.retransmits;
  if (kind == SendKind::kResyncReplay) ++stats_.resync_replays;
  if (kind == SendKind::kNackResend) ++stats_.nack_retransmits;

  const double now = events_.now();
  if (first_send_ms_.size() <= epoch) first_send_ms_.resize(epoch + 1, -1.0);
  if (first_send_ms_[epoch] < 0.0) first_send_ms_[epoch] = now;

  Frame frame;
  frame.kind = FrameKind::kData;
  frame.epoch = epoch;
  frame.payload = source_->at(epoch).wire;
  for (const FaultyWire::Delivery& d : wire_.arrivals(now, frame.wire_bytes())) {
    if (d.corrupted) {
      // The frame arrives damaged: one seeded bit of the wire image is
      // flipped in a private copy (the shared log bytes stay pristine for
      // every other delivery and retransmit).
      const uint64_t bits = d.corrupt_bits;
      events_.post(d.at_ms, [this, epoch, now, bits] {
        const proto::Bytes& pristine = *source_->at(epoch).wire;
        auto damaged = std::make_shared<proto::Bytes>(pristine);
        if (!damaged->empty()) {
          const size_t bit = static_cast<size_t>(bits % (damaged->size() * 8));
          (*damaged)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        on_data_delivered(epoch, now, std::move(damaged));
      });
    } else {
      events_.post(d.at_ms, [this, epoch, now] {
        on_data_delivered(epoch, now, source_->at(epoch).wire);
      });
    }
  }
}

void SwitchSession::send_ack_frame(FrameKind kind, uint64_t epoch, double at_ms) {
  for (const FaultyWire::Delivery& d : wire_.arrivals(at_ms, kFrameHeaderBytes)) {
    // A corrupted header-only frame fails its integrity check at the
    // controller and is discarded: corruption degenerates to loss.
    if (d.corrupted) continue;
    switch (kind) {
      case FrameKind::kAck:
        events_.post(d.at_ms, [this, epoch] { on_ack(epoch); });
        break;
      case FrameKind::kResync:
        events_.post(d.at_ms, [this, epoch] { on_resync(epoch); });
        break;
      case FrameKind::kNack:
        events_.post(d.at_ms, [this, epoch] { on_nack(epoch); });
        break;
      case FrameKind::kData:
        break;  // not an agent->controller frame
    }
  }
}

void SwitchSession::on_data_delivered(
    uint64_t epoch, double send_ms,
    const std::shared_ptr<const proto::Bytes>& payload) {
  if (done_) return;
  const double now = events_.now();
  if (agent_dark(now)) {
    // The agent's box is dark: the frame is gone, no NACK, no ack.
    ++stats_.blackout_drops;
    return;
  }
  stats_.channel_ms.add(now - send_ms);
  handle_ingest(epoch, agent_.on_data(epoch, payload, now));
}

void SwitchSession::handle_ingest(uint64_t epoch,
                                  const SwitchAgent::Ingest& ingest) {
  if (ingest.dropped) return;  // agent down mid-recovery; the frame is gone
  if (ingest.corrupt) {
    // Caught by the CRC before parsing: ask for the pristine bytes again
    // instead of waiting out a full retry timeout.
    ++stats_.nacks;
    send_ack_frame(FrameKind::kNack, epoch, ingest.done_ms);
    return;
  }
  // Epochs that applied before a crash in the same drain still count.
  for (const SwitchAgent::AppliedEpoch& applied : ingest.applied) {
    stats_.firmware_ms.add(applied.firmware_ms);
    stats_.tcam_ms.add(applied.tcam_ms);
    stats_.entry_writes += applied.entry_writes;
    stats_.moves += applied.moves;
    if (!applied.ok) ++stats_.apply_failures;
    if (applied.status == tcam::ApplyStatus::kTableFull) ++stats_.table_full;
    if (applied.status == tcam::ApplyStatus::kRolledBack) ++stats_.rolled_back;
  }
  if (ingest.crashed) {
    on_crash(ingest.done_ms);
    return;
  }
  // Cumulative ack after every data frame, barrier-anchored at the last
  // applied fence. Duplicates re-ack so a lost ack cannot wedge the window.
  send_ack_frame(FrameKind::kAck, agent_.last_applied(), ingest.done_ms);
}

void SwitchSession::on_crash(double crash_ms) {
  ++stats_.crashes;
  // Journal recovery runs as the first step of the agent's restart path:
  // rollback restores the pre-update TCAM (each undone move is a real
  // entry write), roll-forward just commits a sealed transaction.
  const SwitchAgent::Recovery recovery = agent_.recover_and_restart();
  stats_.recovered_writes += recovery.undone_writes;
  if (recovery.rolled_forward) ++stats_.roll_forwards;
  // The agent stays down for the modelled repair time; frames delivered in
  // the gap are dropped like against any dead process.
  events_.post(crash_ms + recovery.recovery_ms, [this] { on_recovered(); });
}

void SwitchSession::on_recovered() {
  if (done_) return;
  agent_.power_on(events_.now());
  // A recovery completing inside a blackout window cannot announce itself;
  // the quarantine probe (or the next restart) picks the agent up later.
  if (agent_dark(events_.now())) return;
  // Only after recovery does the resync anchor mean anything: the TCAM now
  // equals a committed prefix of the epoch log.
  send_ack_frame(FrameKind::kResync, agent_.last_applied(), events_.now());
}

void SwitchSession::on_ack(uint64_t acked) {
  if (done_) return;
  ++stats_.acks;
  const bool progress = acked >= base_;
  // A progressing ack reaching a quarantined session is proof of life —
  // re-admit before the normal bookkeeping resumes the window.
  if (quarantined_ && progress) readmit(acked);
  advance_base(acked);
  if (done_) return;
  if (progress) {
    send_window();
    arm_timer();
  }
}

void SwitchSession::on_nack(uint64_t epoch) {
  if (done_ || quarantined_) return;
  // Resend only if the epoch is still in flight; a NACK for a committed
  // epoch is stale (a duplicate of the pristine frame got through first).
  if (epoch >= base_ && epoch < next_to_send_) {
    send_epoch(epoch, SendKind::kNackResend);
  }
}

void SwitchSession::advance_base(uint64_t acked) {
  if (acked < base_) return;  // stale or duplicate ack
  silent_rounds_ = 0;
  loss_ewma_ *= 1.0 - cfg_.knobs.retry.loss_alpha;  // progress: decay estimate
  const double now = events_.now();
  for (uint64_t e = base_; e <= acked; ++e) {
    stats_.ack_ms.add(now - first_send_ms_[e]);
  }
  base_ = acked + 1;
  maybe_finish();
}

void SwitchSession::maybe_finish() {
  // Done only when the log is final *and* fully committed. With a growing
  // source the completion flag may flip after the last ack was processed
  // (the producer's close races the consumer in wall time, never in
  // virtual time) — pump_published() re-checks via this path.
  if (done_) return;
  if (source_->complete() && base_ > source_->available() &&
      next_to_send_ > source_->available()) {
    finish();
  }
}

double SwitchSession::retry_interval_ms() {
  const RetryPolicy& rp = cfg_.knobs.retry;
  // Round 0 always equals the configured timeout — exactly the historical
  // fixed timer, so fault-free virtual trajectories never move. Only a
  // *consecutive* silent round escalates.
  if (!rp.adaptive || silent_rounds_ == 0) return rp.timeout_ms;
  double t = rp.timeout_ms * (1.0 + rp.loss_gain * loss_ewma_);
  for (size_t r = 0; r < silent_rounds_ && t < rp.max_timeout_ms; ++r) {
    t *= rp.backoff;
  }
  t = std::min(t, rp.max_timeout_ms);
  // Seeded jitter desynchronizes the retransmit storms of many sessions
  // backing off through the same brownout window.
  return t * (1.0 + rp.jitter * (2.0 * backoff_rng_.next_double() - 1.0));
}

void SwitchSession::arm_timer() {
  const uint64_t generation = ++timer_generation_;
  events_.post(events_.now() + retry_interval_ms(),
               [this, generation] { on_timer(generation); });
}

void SwitchSession::on_timer(uint64_t generation) {
  if (done_ || generation != timer_generation_) return;
  if (base_ < next_to_send_) {
    // No ack movement for a full retry interval: go-back-N over the
    // in-flight window. The agent discards epochs it already applied and
    // re-acks, so over-retransmission only costs wire time.
    ++stats_.timeouts;
    ++silent_rounds_;
    // One loss observation per silent round, not per lost frame: the
    // estimator tracks "is this wire currently swallowing whole windows".
    const RetryPolicy& rp = cfg_.knobs.retry;
    loss_ewma_ += rp.loss_alpha * (1.0 - loss_ewma_);
    if (rp.quarantine_after > 0 && silent_rounds_ >= rp.quarantine_after) {
      enter_quarantine();
      return;
    }
    for (uint64_t e = base_; e < next_to_send_; ++e) {
      send_epoch(e, SendKind::kRetransmit);
    }
  }
  arm_timer();
}

void SwitchSession::enter_quarantine() {
  quarantined_ = true;
  ++stats_.quarantines;
  quarantine_enter_ms_ = events_.now();
  ++timer_generation_;  // park the retry timer; probes own liveness now
  arm_probe();
}

void SwitchSession::readmit(uint64_t anchor) {
  quarantined_ = false;
  ++stats_.readmissions;
  stats_.rejoin_ms.add(events_.now() - quarantine_enter_ms_);
  ++probe_generation_;  // cancel the probe loop
  silent_rounds_ = 0;
  // Warm-boot catch-up check: the fleet verifies the frozen base image plus
  // the hash-chained delta blobs that bring the switch to its anchor.
  if (cfg_.on_readmit && !cfg_.on_readmit(anchor)) ++stats_.readmit_failures;
  // The TCAM the switch rejoins with must already satisfy every structural
  // invariant — re-admission may not launder a torn table back in.
  const tcam::AuditReport audit = tcam::audit_state(
      agent_.device().tcam(), agent_.device().dag_firmware().graph());
  if (!audit.clean()) ++stats_.rejoin_audit_violations;
}

void SwitchSession::arm_probe() {
  const uint64_t generation = ++probe_generation_;
  const RetryPolicy& rp = cfg_.knobs.retry;
  const double gap = rp.probe_interval_ms *
                     (1.0 + rp.jitter * (2.0 * backoff_rng_.next_double() - 1.0));
  events_.post(events_.now() + gap, [this, generation] { on_probe(generation); });
}

void SwitchSession::on_probe(uint64_t generation) {
  if (done_ || !quarantined_ || generation != probe_generation_) return;
  ++stats_.probe_sends;
  // Header-only liveness probe through the same faulty wire as everything
  // else (it can be dropped, delayed or corrupted like any frame).
  for (const FaultyWire::Delivery& d :
       wire_.arrivals(events_.now(), kFrameHeaderBytes)) {
    if (d.corrupted) continue;
    events_.post(d.at_ms, [this] { on_probe_delivered(); });
  }
  arm_probe();
}

void SwitchSession::on_probe_delivered() {
  if (done_ || !quarantined_) return;
  const double now = events_.now();
  if (agent_dark(now) || agent_.down()) return;  // still dark; keep probing
  // The agent answers with its resync anchor; on_resync() re-admits.
  send_ack_frame(FrameKind::kResync, agent_.last_applied(), now);
}

bool SwitchSession::agent_dark(double t) const {
  for (const BlackoutWindow& b : cfg_.blackouts) {
    if (b.covers(t)) return true;
  }
  return false;
}

void SwitchSession::schedule_restart() {
  if (cfg_.knobs.faults.restart_every_ms <= 0.0) return;
  const double gap =
      cfg_.knobs.faults.restart_every_ms * (0.5 + restart_rng_.next_double());
  events_.post(events_.now() + gap, [this] { on_restart(); });
}

void SwitchSession::on_restart() {
  if (done_) return;
  if (agent_.down()) {
    // The agent is already dead, mid crash-recovery: restarting a dead
    // process is a no-op, and the recovery path will send the resync.
    schedule_restart();
    return;
  }
  agent_.restart();
  // The restarted agent announces where it stands; frames that were in its
  // reorder buffer are gone and will be replayed from the log. Inside a
  // blackout window the announcement cannot leave the box.
  if (!agent_dark(events_.now())) {
    send_ack_frame(FrameKind::kResync, agent_.last_applied(), events_.now());
  }
  schedule_restart();
}

void SwitchSession::on_resync(uint64_t last_applied) {
  if (done_) return;
  ++stats_.resyncs;
  if (quarantined_) readmit(last_applied);
  // A resync anchored below the committed frontier lost a race: the agent
  // restarted again (or reordering inverted two resyncs) while an earlier
  // replay was still in flight.
  if (last_applied + 1 < base_) ++stats_.stale_resyncs;
  // The report doubles as a cumulative ack: everything at or below it is
  // durably applied.
  advance_base(last_applied);
  if (done_) return;
  // Replay from the *min* anchor: a racing second restart may have wiped a
  // reorder buffer that held epochs the first resync's replay already
  // covered, so replaying only [base_, next) could strand them until a
  // timeout. Epochs the agent does hold are discarded as duplicates.
  const uint64_t replay_from = std::min<uint64_t>(last_applied + 1, base_);
  for (uint64_t e = replay_from; e < next_to_send_; ++e) {
    send_epoch(e, SendKind::kResyncReplay);
  }
  send_window();
  arm_timer();
}

bool SwitchSession::pump_published() {
  // Events and gated first sends interleave in strict virtual-time order,
  // bounded by the sealed horizon: ready_ms is strictly increasing, so any
  // still-unsealed epoch's send lies strictly beyond ready_ms(available()),
  // and no event at or past that bound may run until more epochs seal.
  // Wall-clock publication timing therefore only decides *where the session
  // blocks*, never the virtual order of anything — which is what keeps the
  // fleet report bit-identical across thread counts.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool progress = false;
  for (;;) {
    maybe_finish();
    if (done_) return progress;
    if (past_deadline()) return false;
    // Read complete() before available(): the source's contract makes a
    // count read after a true completion flag final, so a racing "publish
    // last epoch, then close" can never yield (complete, stale count) here.
    const bool complete = source_->complete();
    const uint64_t avail = source_->available();
    const double horizon =
        complete ? kInf : (avail == 0 ? 0.0 : source_->ready_ms(avail));
    double t_send = kInf;
    if (!quarantined_ &&
        next_to_send_ <= std::min<uint64_t>(avail, send_limit_) &&
        next_to_send_ < base_ + cfg_.knobs.window) {
      t_send = std::max(events_.now(), source_->ready_ms(next_to_send_));
    }
    const double t_event = events_.next_due();
    if (t_send <= t_event) {  // tie resolves send-first, deterministically
      if (t_send == kInf) return progress;  // idle: starved on the compiler
      // A sealed epoch's send never exceeds the horizon (ready monotone),
      // so advancing the clock to it is always safe.
      events_.advance_to(t_send);
      send_epoch(next_to_send_, SendKind::kFirst);
      ++next_to_send_;
      progress = true;
      continue;
    }
    if (t_event >= horizon) return progress;  // beyond sealed horizon: starve
    events_.run_next();
    progress = true;
  }
}

void SwitchSession::finish() {
  done_ = true;
  stats_.completed = true;
  stats_.makespan_ms = events_.now();
  events_.clear();
}

void SwitchSession::verify(const std::vector<flowspace::Rule>& expected) {
  bool ok = stats_.completed && stats_.apply_failures == 0 &&
            stats_.readmit_failures == 0 &&
            stats_.rejoin_audit_violations == 0;
  // The firmware state auditor checks all three invariants: address-ordered
  // DAG edges, exact expected-set match, no duplicate/orphan slots.
  const tcam::AuditReport audit =
      tcam::audit_state(agent_.device().tcam(),
                        agent_.device().dag_firmware().graph(), expected);
  ok = ok && audit.clean();
  ok = ok && agent_.device().dag_firmware().layout_valid();
  stats_.converged = ok;
}

}  // namespace ruletris::runtime
