#include "runtime/sharded_controller.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "classbench/generator.h"
#include "compiler/ruletris_compiler.h"
#include "frozen/delta.h"
#include "frozen/publish.h"
#include "proto/codec.h"
#include "tcam/tcam.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace ruletris::runtime {

using compiler::PolicySpec;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t hash_bytes(const frozen::Bytes& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, mixed at the end
  for (uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return util::mix64(h);
}

/// EpochSource over a shard's publication ring, with failover splicing:
/// after an adoption the stream continues in a fresh ring owned by the
/// adopting shard. splice() is called exactly once, before the adopter
/// publishes anything into the continuation; the release store on cont_
/// orders primary_count_ for lock-free readers. available() stays monotone:
/// the primary's sealed count is frozen at the splice point.
class RingEpochSource final : public EpochSource {
 public:
  explicit RingEpochSource(const frozen::PublishRing<SealedEpoch>& ring)
      : primary_(&ring) {}

  void splice(uint64_t primary_epochs,
              const frozen::PublishRing<SealedEpoch>* cont) {
    primary_count_.store(primary_epochs, std::memory_order_relaxed);
    cont_.store(cont, std::memory_order_release);
  }

  /// Full sealed record (sessions need wire + ready; the re-admission
  /// verifier needs delta blobs too).
  const SealedEpoch& rec(uint64_t e) const {
    const auto* c = cont_.load(std::memory_order_acquire);
    if (c == nullptr) return primary_->get(e);
    const uint64_t p = primary_count_.load(std::memory_order_relaxed);
    return e <= p ? primary_->get(e) : c->get(e - p);
  }

  uint64_t available() const override {
    const auto* c = cont_.load(std::memory_order_acquire);
    if (c == nullptr) return primary_->sealed();
    return primary_count_.load(std::memory_order_relaxed) + c->sealed();
  }
  bool complete() const override {
    const auto* c = cont_.load(std::memory_order_acquire);
    return c == nullptr ? primary_->closed() : c->closed();
  }
  const EncodedEpoch& at(uint64_t e) const override { return rec(e).wire; }
  double ready_ms(uint64_t e) const override { return rec(e).ready_vt_ms; }

 private:
  const frozen::PublishRing<SealedEpoch>* primary_;
  std::atomic<const frozen::PublishRing<SealedEpoch>*> cont_{nullptr};
  std::atomic<uint64_t> primary_count_{0};
};

/// One-owner-at-a-time claim for the work-stealing sweep.
class TryLock {
 public:
  bool try_acquire() {
    bool expected = false;
    return locked_.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire);
  }
  void release() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

struct SwitchSlot {
  size_t index = 0;
  /// Private rule-id namespace: every id this switch's tables, compiler and
  /// deltas ever see is allocated here, so ids are a function of the switch,
  /// not of cross-switch scheduling. Touched only under the owning shard's
  /// lock (task generation at init is serial).
  RuleId id_counter = 0;
  SwitchTask task;  // tables consumed when the engine is built

  // Failover provisions, set at init for switches whose home shard is
  // scheduled to die: a pristine task copy and the id-counter checkpoint
  // taken right after task generation, so an adopting shard can rebuild the
  // compile state with bit-identical rule ids.
  SwitchTask task_backup;
  RuleId id_rebuild_base = 0;
  bool at_risk = false;
  /// Keep delta blobs in the sealed ring records (failover reconstruction
  /// or quarantine re-admission needs the bytes, not just the hashes).
  bool retain_blobs = false;

  // Compile side — guarded by the owning CompileShard's lock; ownership
  // moves wholesale to the adopting shard on failover. Deltas are sealed
  // from the engine root's recorded churn; only audited switches capture
  // the policy after epoch 1.
  std::unique_ptr<ChurnEngine> engine;
  /// Epoch-1 capture, kept only where something reads it: the replay audit,
  /// failover reconstruction and re-admission verification.
  frozen::PolicyImage base_image;
  /// Audited switches: the latest epoch's capture, the diff source of the
  /// recorded ≡ diffed oracle and the replay audit's expected image.
  frozen::PolicyImage audit_image;
  std::vector<std::shared_ptr<const frozen::Bytes>> audit_blobs;
  bool audited = false;
  bool audit_passed = true;
  uint64_t delta_chain = 0;  // hash chain over every sealed delta blob
  size_t rule_ops = 0;
  size_t cover_overflows = 0;  // conservative-edge fallbacks, whole stream
  std::vector<Rule> expected;  // final composed table; written before close()

  // Failover outcome (written by the adopting shard under its lock).
  bool adopted = false;
  bool failover_ok = true;
  size_t failover_epochs = 0;
  double failover_ms = 0.0;  // kill time -> adoption complete (virtual)

  // Handoff: the shard publishes here, the session consumes lock-free.
  std::unique_ptr<frozen::PublishRing<SealedEpoch>> ring;
  /// Failover continuation ring; the source splices it in at the published
  /// frontier before the adopter seals anything into it.
  std::unique_ptr<frozen::PublishRing<SealedEpoch>> cont_ring;
  std::unique_ptr<RingEpochSource> source;

  // Session side — guarded by `lock`.
  std::unique_ptr<SwitchSession> session;
  TryLock lock;
  bool started = false;
  size_t starved = 0;
  SessionStats stats;
  std::string error;
  std::atomic<bool> finished{false};
};

/// A switch orphaned by a shard kill, queued for adoption. kill_at gates
/// *when* (on the adopter's virtual clock) the orphan integrates; floor is
/// the dead shard's clock at death — the adopter clamps up to it so the
/// continued ready times stay strictly above everything already published.
struct Orphan {
  SwitchSlot* slot = nullptr;
  double kill_at = 0.0;
  double floor = 0.0;
};

struct CompileShard {
  size_t index = 0;
  std::vector<SwitchSlot*> owned;  // fixed round-robin order; grows on adoption
  size_t cursor = 0;
  size_t remaining = 0;  // engines not yet complete
  double vt_ms = 0.0;    // the shard's virtual compile clock
  size_t steps = 0;
  std::string error;
  TryLock lock;
  std::atomic<bool> done{false};

  // Chaos state.
  bool adoptable = false;     // never scheduled to die; may inherit orphans
  double kill_at_ms = -1.0;   // scheduled kill time; < 0 = none pending
  bool killed = false;
  std::mutex adopt_mu;
  std::vector<Orphan> pending;  // guarded by adopt_mu
};

struct Fleet {
  std::vector<std::unique_ptr<SwitchSlot>> slots;
  std::vector<std::unique_ptr<CompileShard>> shards;
  std::atomic<size_t> live_sessions{0};
  std::atomic<size_t> steals{0};
  std::atomic<bool> failed{false};

  /// One entry per scheduled kill; resolved once the kill fired or the
  /// shard escaped by finishing first. The release store happens after the
  /// orphans are queued, so an adopter that observes resolution sees them.
  struct KillState {
    size_t shard = 0;
    double at_ms = 0.0;
    std::atomic<bool> resolved{false};
  };
  std::vector<std::unique_ptr<KillState>> kills;
  std::atomic<size_t> shard_kills{0};
  std::atomic<size_t> kills_escaped{0};

  /// Earliest kill time not yet resolved — the compile-side horizon no
  /// adoptable shard may step past (its orphans must integrate exactly
  /// there for the continued streams to be schedule-independent).
  double min_unresolved_kill() const {
    double t = kInf;
    for (const auto& k : kills) {
      if (!k->resolved.load(std::memory_order_acquire)) {
        t = std::min(t, k->at_ms);
      }
    }
    return t;
  }

  void resolve_kill(size_t shard_index) {
    for (auto& k : kills) {
      if (k->shard == shard_index) {
        k->resolved.store(true, std::memory_order_release);
      }
    }
  }
};

SwitchTask default_task(const FleetSpec& spec, size_t sw) {
  SwitchTask task;
  util::Rng rng(util::hash_pair(spec.seed, sw + 1));
  task.tables.emplace(
      "mon", FlowTable{classbench::generate_monitor(spec.initial_monitor, rng)});
  task.tables.emplace(
      "rtr", FlowTable{classbench::generate_router(spec.initial_router, rng)});
  task.spec = PolicySpec::parallel(PolicySpec::leaf("mon"), PolicySpec::leaf("rtr"));
  task.churn.leaf = "mon";
  task.churn.updates = spec.updates_per_switch;
  task.churn.seed = util::hash_pair(spec.seed ^ 0x9e3779b97f4a7c15ULL, sw + 1);
  task.churn.burst = spec.burst;
  return task;
}

/// Replays the switch's retained RTDZ delta blobs over its epoch-1 base
/// image; true iff the chain reproduces the final captured image exactly.
bool replay_audit(const SwitchSlot& slot) {
  frozen::PolicyImage replay = slot.base_image;
  for (const auto& blob : slot.audit_blobs) {
    frozen::apply_delta(replay, frozen::decode_delta(*blob));
  }
  return replay == slot.audit_image;
}

/// Compiles and seals one epoch for the shard's next unfinished switch.
/// Caller holds the shard lock. Returns false when every engine is done.
bool seal_next(CompileShard& shard, const FleetSpec& spec) {
  SwitchSlot* slot = nullptr;
  for (size_t probe = 0; probe < shard.owned.size(); ++probe) {
    SwitchSlot* cand = shard.owned[(shard.cursor + probe) % shard.owned.size()];
    if (!cand->engine || !cand->engine->done()) {
      slot = cand;
      shard.cursor = (shard.cursor + probe + 1) % shard.owned.size();
      break;
    }
  }
  if (slot == nullptr) return false;

  flowspace::ScopedRuleIdNamespace ns(&slot->id_counter);
  if (!slot->engine) {
    slot->engine = std::make_unique<ChurnEngine>(
        slot->task.spec, std::move(slot->task.tables), slot->task.churn);
  }
  ChurnEngine::Step step = slot->engine->step();
  const uint64_t epoch = slot->engine->produced();

  // The modelled compile cost is what the shard's clock advances by — the
  // sealed ready time is a function of the step sequence alone, never of
  // which worker ran the step or when.
  shard.vt_ms += spec.compile_base_ms +
                 spec.compile_per_op_ms * static_cast<double>(step.ops);
  ++shard.steps;
  slot->rule_ops += step.ops;

  SealedEpoch sealed;
  sealed.wire.wire =
      std::make_shared<const proto::Bytes>(proto::encode_batch(step.batch));
  sealed.wire.messages = step.batch.size();
  sealed.ops = step.ops;
  sealed.ready_vt_ms = shard.vt_ms;

  compiler::RuleTrisCompiler& frontend = slot->engine->frontend();
  if (epoch == 1) {
    // No predecessor: the chain anchors on the base image, and the root
    // starts recording the churn every later epoch is sealed from.
    frozen::PolicyImage image = frozen::capture_policy(frontend, epoch);
    sealed.delta_hash = hash_bytes(frozen::freeze(image));
    frozen::start_recording(frontend);
    if (slot->audited) slot->audit_image = image;
    if (slot->audited || slot->retain_blobs) slot->base_image = std::move(image);
  } else {
    auto blob = std::make_shared<const frozen::Bytes>(
        frozen::encode_delta(frozen::seal_recorded(frontend, epoch - 1, epoch)));
    sealed.delta_hash = hash_bytes(*blob);
    if (slot->audited) {
      // Differential oracle: the recorded delta must encode byte-for-byte
      // like a diff of consecutive captures.
      frozen::PolicyImage image = frozen::capture_policy(frontend, epoch);
      if (frozen::encode_delta(frozen::diff(slot->audit_image, image)) != *blob) {
        slot->audit_passed = false;
      }
      slot->audit_image = std::move(image);
      slot->audit_blobs.push_back(blob);
    }
    if (slot->audited || slot->retain_blobs) sealed.delta = std::move(blob);
  }
  slot->delta_chain = util::hash_pair(slot->delta_chain, sealed.delta_hash);

  frozen::PublishRing<SealedEpoch>& ring =
      slot->cont_ring ? *slot->cont_ring : *slot->ring;
  const bool last = slot->engine->done();
  if (last) {
    // Everything the session will read after observing closed() must be in
    // place before close()'s release store.
    slot->expected = slot->engine->current_rules();
    slot->cover_overflows = frontend.root().cover_overflows();
    if (slot->audited) {
      slot->audit_passed = slot->audit_passed && replay_audit(*slot);
    }
  }
  ring.publish(std::make_unique<SealedEpoch>(std::move(sealed)));
  if (last) {
    ring.close();
    --shard.remaining;
  }
  return true;
}

/// Fires a scheduled kill: the shard's in-memory compile state is lost and
/// its unfinished switches queue for adoption, round-robin across the
/// shards the schedule spares. Caller holds the dead shard's lock.
void process_kill(CompileShard& dead, Fleet& fleet) {
  dead.killed = true;
  fleet.shard_kills.fetch_add(1, std::memory_order_relaxed);
  std::vector<CompileShard*> survivors;
  for (const auto& s : fleet.shards) {
    if (s->adoptable) survivors.push_back(s.get());
  }
  size_t rr = 0;
  for (SwitchSlot* slot : dead.owned) {
    if (slot->engine && slot->engine->done()) continue;  // already finished
    // The engine dies with its shard; only the published ring, the pristine
    // task copy and the id checkpoint survive.
    slot->engine.reset();
    Orphan o{slot, dead.kill_at_ms, dead.vt_ms};
    CompileShard& target = *survivors[rr++ % survivors.size()];
    std::lock_guard<std::mutex> g(target.adopt_mu);
    target.pending.push_back(o);
  }
  dead.remaining = 0;
  dead.done.store(true, std::memory_order_release);
  fleet.resolve_kill(dead.index);  // release: after the orphans are queued
}

/// Adopts one orphan: verify the published blob chain, rebuild the engine
/// from the pristine task (ids replay identically), charge the replay to
/// this shard's clock, splice a fresh continuation ring into the session's
/// source. Caller holds the adopting shard's lock.
void adopt_slot(CompileShard& shard, const Orphan& o, const FleetSpec& spec) {
  SwitchSlot& slot = *o.slot;
  // Clamp to the dead shard's final clock: every epoch already published is
  // ready at or below the floor, so the continued ready times stay strictly
  // increasing on the spliced stream.
  shard.vt_ms = std::max(shard.vt_ms, o.floor);
  flowspace::ScopedRuleIdNamespace ns(&slot.id_counter);
  const uint64_t published = slot.ring->sealed();

  // 1. Reconstruct the authoritative compile state from the hash-chained
  // RTDZ delta blobs — the shard-handoff currency — verifying every link.
  bool ok = true;
  frozen::PolicyImage replayed;
  if (published >= 1) {
    replayed = slot.base_image;
    ok = hash_bytes(frozen::freeze(slot.base_image)) ==
         slot.ring->get(1).delta_hash;
    uint64_t chain = util::hash_pair(0, slot.ring->get(1).delta_hash);
    for (uint64_t e = 2; e <= published && ok; ++e) {
      const SealedEpoch& rec = slot.ring->get(e);
      if (!rec.delta || hash_bytes(*rec.delta) != rec.delta_hash) {
        ok = false;
        break;
      }
      frozen::apply_delta(replayed, frozen::decode_delta(*rec.delta));
      chain = util::hash_pair(chain, rec.delta_hash);
    }
    ok = ok && chain == slot.delta_chain;
  }

  // 2. Rebuild the engine from the pristine task and re-step it to the
  // published frontier. The id counter rewinds to its post-task checkpoint,
  // so inside the switch's namespace the replayed compile allocates exactly
  // the ids the dead shard allocated.
  slot.id_counter = slot.id_rebuild_base;
  SwitchTask task = slot.task_backup;
  slot.engine = std::make_unique<ChurnEngine>(
      task.spec, std::move(task.tables), task.churn);
  double replay_cost = 0.0;
  for (uint64_t e = 1; e <= published; ++e) {
    const ChurnEngine::Step step = slot.engine->step();
    replay_cost += spec.failover_replay_factor *
                   (spec.compile_base_ms +
                    spec.compile_per_op_ms * static_cast<double>(step.ops));
  }
  slot.failover_epochs += static_cast<size_t>(published);
  shard.vt_ms += replay_cost;

  // 3. The rebuilt state must equal the blob replay bit for bit — this is
  // the adopted-stream-equals-never-failed-stream guarantee. Recording
  // resumes from the rebuilt state, the boundary of the next sealed epoch.
  if (published >= 1) {
    frozen::PolicyImage recompiled =
        frozen::capture_policy(slot.engine->frontend(), published);
    ok = ok && recompiled == replayed;
    frozen::start_recording(slot.engine->frontend());
    if (slot.audited) slot.audit_image = std::move(recompiled);
  }
  slot.failover_ok = ok;
  slot.adopted = true;
  slot.failover_ms = shard.vt_ms - o.kill_at;

  // 4. Fresh continuation ring, spliced in before anything is sealed into
  // it; the session keeps consuming without ever noticing the handoff.
  const uint64_t total = slot.engine->total_epochs();
  slot.cont_ring =
      std::make_unique<frozen::PublishRing<SealedEpoch>>(total - published);
  slot.source->splice(published, slot.cont_ring.get());
  shard.owned.push_back(&slot);
  ++shard.remaining;
}

/// Moves eligible orphans from the pending queue into the shard, one at a
/// time in (kill time, switch) order. An orphan integrates once its kill is
/// the earliest unresolved-or-resolved event at or below this shard's
/// clock: kills integrate in kill-time order, each at the first step
/// boundary where the adopter's clock has reached it (or at the floor
/// directly when the adopter is idle). Due-ness is re-checked after every
/// adoption: an idle adopter that finds two kills' orphans pending is busy
/// after the first, so the second waits for the clock to reach its kill
/// time — as it would have had that kill resolved later. `min_unresolved`
/// is the caller's snapshot of the earliest unresolved kill time. Caller
/// holds the shard lock. Returns true if anything was adopted.
bool adopt_ready_orphans(CompileShard& shard, double min_unresolved,
                         const FleetSpec& spec) {
  bool adopted = false;
  for (;;) {
    Orphan next;
    {
      std::lock_guard<std::mutex> g(shard.adopt_mu);
      auto first = std::min_element(
          shard.pending.begin(), shard.pending.end(),
          [](const Orphan& a, const Orphan& b) {
            if (a.kill_at != b.kill_at) return a.kill_at < b.kill_at;
            return a.slot->index < b.slot->index;
          });
      if (first == shard.pending.end()) break;
      // Never integrate a later kill's orphans while an earlier kill is
      // still unresolved — processing order must be the kill-time order.
      const bool in_order = first->kill_at < min_unresolved;
      const bool due = shard.remaining == 0 || first->kill_at <= shard.vt_ms;
      if (!in_order || !due) break;
      next = *first;
      shard.pending.erase(first);
    }
    adopt_slot(shard, next, spec);
    adopted = true;
  }
  return adopted;
}

/// Marks the shard done when nothing can ever land on it again. Caller
/// holds the shard lock.
void maybe_retire_shard(CompileShard& shard, Fleet& fleet) {
  if (shard.killed || shard.remaining != 0) return;
  if (shard.kill_at_ms >= 0.0) return;  // kill pending: stay claimable
  if (shard.adoptable) {
    if (fleet.min_unresolved_kill() < kInf) return;  // may inherit orphans
    std::lock_guard<std::mutex> g(shard.adopt_mu);
    if (!shard.pending.empty()) return;
  }
  shard.done.store(true, std::memory_order_release);
}

/// One claimed quantum of compile work: fire due kills, integrate due
/// orphans, seal epochs — never stepping past an unresolved kill time (the
/// compile-side horizon rule that keeps adoption points schedule-
/// independent). Caller holds the shard lock.
bool run_shard_quantum(CompileShard& shard, Fleet& fleet,
                       const FleetSpec& spec) {
  constexpr int kQuantum = 8;  // epochs sealed per shard claim
  bool progress = false;
  for (int q = 0; q < kQuantum; ++q) {
    if (!shard.killed && shard.kill_at_ms >= 0.0) {
      // A kill fires at the first step boundary at or past its virtual
      // time — a pure function of the shard's own step sequence.
      if (shard.vt_ms >= shard.kill_at_ms) {
        process_kill(shard, fleet);
        return true;
      }
      if (shard.remaining == 0) {
        // Every owned stream sealed before the kill time: the kill misses.
        fleet.resolve_kill(shard.index);
        fleet.kills_escaped.fetch_add(1, std::memory_order_relaxed);
        shard.kill_at_ms = -1.0;
        progress = true;
        continue;
      }
    }
    if (shard.adoptable) {
      // One snapshot serves both checks: a kill that resolves between them
      // must not lift the horizon for orphans this pass did not adopt.
      const double min_unresolved = fleet.min_unresolved_kill();
      if (adopt_ready_orphans(shard, min_unresolved, spec)) {
        progress = true;
        continue;
      }
      if (shard.remaining > 0 && shard.vt_ms >= min_unresolved) {
        break;  // compile horizon: wall-block until the kill resolves
      }
    }
    if (shard.remaining == 0) break;
    if (!seal_next(shard, spec)) break;
    progress = true;
  }
  maybe_retire_shard(shard, fleet);
  return progress;
}

/// Pumps one session as far as its sealed horizon allows. Caller holds the
/// slot lock. Returns true if the session made progress.
bool pump_slot(SwitchSlot& slot, const FleetSpec& spec, Fleet& fleet) {
  if (slot.finished.load(std::memory_order_relaxed)) return false;
  try {
    if (!slot.started) {
      slot.session->start();
      slot.started = true;
    }
    const bool progress = slot.session->pump_published();
    if (slot.session->done()) {
      // done ⇒ the session observed closed(), so slot.expected is visible
      // and the shard will never write this slot again.
      slot.stats = slot.session->finalize(slot.expected);
    } else if (!progress) {
      if (slot.session->now_ms() > spec.knobs.deadline_ms) {
        // Deadline miss with the compile possibly still running: finalize
        // against nothing (reports non-convergence) rather than racing the
        // shard for slot.expected.
        slot.stats = slot.session->finalize({});
      } else {
        ++slot.starved;  // sealed horizon reached; go compile instead
        return false;
      }
    } else {
      return true;
    }
  } catch (const std::exception& e) {  // workers must not throw
    slot.error = e.what();
    fleet.failed.store(true, std::memory_order_relaxed);
  }
  slot.finished.store(true, std::memory_order_relaxed);
  fleet.live_sessions.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

/// One dispatch worker: sweep sessions, then steal compile work. Workers
/// are symmetric — "stealing" is just running a quantum for a shard whose
/// home worker (index % n_threads) is someone else.
void worker_loop(Fleet& fleet, const FleetSpec& spec, size_t worker,
                 size_t n_threads) {
  const size_t n_slots = fleet.slots.size();
  const size_t n_shards = fleet.shards.size();
  const size_t slot_offset = n_slots == 0 ? 0 : (worker * n_slots) / n_threads;
  while (fleet.live_sessions.load(std::memory_order_acquire) > 0 &&
         !fleet.failed.load(std::memory_order_relaxed)) {
    bool progress = false;
    for (size_t k = 0; k < n_slots; ++k) {
      SwitchSlot& slot = *fleet.slots[(slot_offset + k) % n_slots];
      if (slot.finished.load(std::memory_order_relaxed)) continue;
      if (!slot.lock.try_acquire()) continue;
      progress |= pump_slot(slot, spec, fleet);
      slot.lock.release();
    }
    for (size_t k = 0; k < n_shards; ++k) {
      CompileShard& shard = *fleet.shards[(worker + k) % n_shards];
      if (shard.done.load(std::memory_order_acquire)) continue;
      if (!shard.lock.try_acquire()) continue;
      if (shard.index % n_threads != worker) {
        fleet.steals.fetch_add(1, std::memory_order_relaxed);
      }
      try {
        progress |= run_shard_quantum(shard, fleet, spec);
      } catch (const std::exception& e) {
        shard.error = e.what();
        shard.done.store(true, std::memory_order_release);
        fleet.failed.store(true, std::memory_order_relaxed);
      }
      shard.lock.release();
    }
    if (!progress) std::this_thread::yield();
  }
}

}  // namespace

void ShardedController::validate(const FleetSpec& spec) {
  if (spec.n_switches == 0) {
    throw std::invalid_argument("FleetSpec: n_switches must be > 0");
  }
  if (spec.n_shards == 0) {
    throw std::invalid_argument("FleetSpec: n_shards must be > 0");
  }
  if (spec.n_shards > spec.n_switches) {
    throw std::invalid_argument(
        "FleetSpec: n_shards must not exceed n_switches (" +
        std::to_string(spec.n_shards) + " > " +
        std::to_string(spec.n_switches) + ")");
  }
  if (spec.n_threads == 0) {
    throw std::invalid_argument("FleetSpec: n_threads must be > 0");
  }
  if (spec.compile_base_ms <= 0.0 || spec.compile_per_op_ms <= 0.0) {
    throw std::invalid_argument(
        "FleetSpec: compile costs must be strictly positive (per-ring ready "
        "times must strictly increase)");
  }
  if (spec.failover_replay_factor < 0.0) {
    throw std::invalid_argument(
        "FleetSpec: failover_replay_factor must be >= 0");
  }
  std::vector<bool> killed(spec.n_shards, false);
  for (const ShardKill& k : spec.chaos.shard_kills) {
    if (k.shard >= spec.n_shards) {
      throw std::invalid_argument(
          "FleetSpec: chaos kill targets shard " + std::to_string(k.shard) +
          " of " + std::to_string(spec.n_shards));
    }
    if (k.at_vt_ms <= 0.0) {
      throw std::invalid_argument(
          "FleetSpec: chaos kill times must be strictly positive");
    }
    if (killed[k.shard]) {
      throw std::invalid_argument(
          "FleetSpec: at most one scheduled kill per shard");
    }
    killed[k.shard] = true;
  }
  if (!spec.chaos.shard_kills.empty() &&
      spec.chaos.shard_kills.size() >= spec.n_shards) {
    throw std::invalid_argument(
        "FleetSpec: at least one shard must be spared to adopt orphans");
  }
  for (const AgentBlackout& b : spec.chaos.blackouts) {
    if (b.sw >= spec.n_switches) {
      throw std::invalid_argument(
          "FleetSpec: chaos blackout targets switch " + std::to_string(b.sw) +
          " of " + std::to_string(spec.n_switches));
    }
    if (b.window.duration_ms <= 0.0 || b.window.at_ms < 0.0) {
      throw std::invalid_argument(
          "FleetSpec: blackout windows need at_ms >= 0 and duration_ms > 0");
    }
  }
}

FleetReport ShardedController::run() {
  validate(spec_);
  const auto wall_start = std::chrono::steady_clock::now();
  const size_t n = spec_.n_switches;
  const size_t n_shards = spec_.n_shards;
  const size_t n_threads = std::max<size_t>(spec_.n_threads, 1);

  std::vector<double> kill_at(n_shards, -1.0);
  for (const ShardKill& k : spec_.chaos.shard_kills) {
    kill_at[k.shard] = k.at_vt_ms;
  }

  Fleet fleet;
  fleet.slots.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto slot = std::make_unique<SwitchSlot>();
    slot->index = i;
    slot->id_counter = static_cast<RuleId>(i + 1) << 32;
    {
      flowspace::ScopedRuleIdNamespace ns(&slot->id_counter);
      slot->task = spec_.make_task ? spec_.make_task(i) : default_task(spec_, i);
    }
    slot->audited = spec_.audit_stride != 0 && i % spec_.audit_stride == 0;
    slot->at_risk = kill_at[i % n_shards] >= 0.0;
    if (slot->at_risk) {
      // Failover provisions: the pristine task and the id checkpoint the
      // adopting shard rewinds to when it rebuilds the engine.
      slot->task_backup = slot->task;
      slot->id_rebuild_base = slot->id_counter;
    }
    slot->retain_blobs = slot->at_risk;
    slot->ring = std::make_unique<frozen::PublishRing<SealedEpoch>>(
        slot->task.churn.updates + 1);
    slot->source = std::make_unique<RingEpochSource>(*slot->ring);
    fleet.slots.push_back(std::move(slot));
  }
  for (const AgentBlackout& b : spec_.chaos.blackouts) {
    // A blackout target may quarantine and re-admit: keep its blobs so the
    // warm-boot catch-up material is verifiable.
    fleet.slots[b.sw]->retain_blobs = true;
  }
  for (size_t i = 0; i < n; ++i) {
    SwitchSlot* raw = fleet.slots[i].get();
    SessionConfig sc;
    sc.knobs = spec_.knobs;
    sc.seed = util::hash_pair(spec_.fault_seed, i + 1);
    sc.tcam_capacity = spec_.tcam_capacity;
    for (const AgentBlackout& b : spec_.chaos.blackouts) {
      if (b.sw == i) sc.blackouts.push_back(b.window);
    }
    // Warm-boot catch-up verification at re-admission: replay the frozen
    // base image through the published, hash-chained delta blobs up to the
    // agent's anchor. Lock-free: only ring records (acquire-published) and
    // base_image (ordered by the epoch-1 publish the anchor implies) are
    // read. Without retained blobs (switch never scheduled for chaos) the
    // check passes trivially.
    sc.on_readmit = [raw](uint64_t anchor) {
      if (!raw->retain_blobs) return true;
      const uint64_t upto = std::min<uint64_t>(anchor, raw->source->available());
      if (upto < 1) return true;
      // Scratch namespace: decoding deltas bumps the active rule-id
      // counter, and this replay must not perturb the switch's real stream.
      RuleId scratch = (static_cast<RuleId>(raw->index) + 1) << 48;
      flowspace::ScopedRuleIdNamespace ns(&scratch);
      if (hash_bytes(frozen::freeze(raw->base_image)) !=
          raw->source->rec(1).delta_hash) {
        return false;
      }
      frozen::PolicyImage img = raw->base_image;
      for (uint64_t e = 2; e <= upto; ++e) {
        const SealedEpoch& rec = raw->source->rec(e);
        if (!rec.delta || hash_bytes(*rec.delta) != rec.delta_hash) {
          return false;
        }
        frozen::apply_delta(img, frozen::decode_delta(*rec.delta));
      }
      return true;
    };
    raw->session = std::make_unique<SwitchSession>(sc, *raw->source);
  }
  fleet.live_sessions.store(n, std::memory_order_relaxed);

  fleet.shards.reserve(n_shards);
  for (size_t k = 0; k < n_shards; ++k) {
    auto shard = std::make_unique<CompileShard>();
    shard->index = k;
    shard->kill_at_ms = kill_at[k];
    shard->adoptable = kill_at[k] < 0.0;
    for (size_t i = k; i < n; i += n_shards) {
      shard->owned.push_back(fleet.slots[i].get());
    }
    shard->remaining = shard->owned.size();
    if (shard->owned.empty() && shard->kill_at_ms < 0.0 &&
        spec_.chaos.shard_kills.empty()) {
      shard->done.store(true, std::memory_order_relaxed);
    }
    fleet.shards.push_back(std::move(shard));
  }
  for (const ShardKill& k : spec_.chaos.shard_kills) {
    auto ks = std::make_unique<Fleet::KillState>();
    ks->shard = k.shard;
    ks->at_ms = k.at_vt_ms;
    fleet.kills.push_back(std::move(ks));
  }

  if (n_threads == 1) {
    worker_loop(fleet, spec_, 0, 1);
  } else {
    util::ThreadPool pool(n_threads);
    for (size_t t = 0; t < n_threads; ++t) {
      pool.run([&fleet, this, t, n_threads] {
        worker_loop(fleet, spec_, t, n_threads);
      });
    }
    pool.wait_idle();
  }

  for (const auto& shard : fleet.shards) {
    if (!shard->error.empty()) {
      throw std::runtime_error("fleet shard " + std::to_string(shard->index) +
                               ": " + shard->error);
    }
  }
  for (const auto& slot : fleet.slots) {
    if (!slot->error.empty()) {
      throw std::runtime_error("fleet switch " + std::to_string(slot->index) +
                               ": " + slot->error);
    }
  }

  FleetReport report;
  report.switches = n;
  report.shards = n_shards;
  report.threads = n_threads;
  double active_makespan = 0.0;
  std::vector<SessionStats> stats;
  stats.reserve(n);
  for (const auto& slot : fleet.slots) {
    stats.push_back(slot->stats);
    report.rule_ops += slot->rule_ops;
    report.cover_overflows += slot->cover_overflows;
    if (slot->audited) {
      ++report.replay_audits;
      report.replay_ok = report.replay_ok && slot->audit_passed;
    }
    if (slot->adopted) {
      ++report.failovers;
      report.failover_ok = report.failover_ok && slot->failover_ok;
      report.failover_epochs += slot->failover_epochs;
      report.failover_ms.add(slot->failover_ms);
    }
    report.starved_pumps += slot->starved;
    if (slot->stats.quarantines == 0) {
      ++report.active_switches;
      report.active_rule_ops += slot->rule_ops;
      active_makespan = std::max(active_makespan, slot->stats.makespan_ms);
    }

    // Per-switch digest: deterministic session counters plus the final TCAM
    // layout, combined order-independently (wrapping sum) across switches.
    uint64_t h = util::hash_pair(slot->index + 1, slot->stats.epochs);
    h = util::hash_pair(h, slot->stats.entry_writes);
    h = util::hash_pair(h, slot->stats.moves);
    h = util::hash_pair(h, slot->stats.data_frames_sent);
    h = util::hash_pair(h, std::bit_cast<uint64_t>(slot->stats.makespan_ms));
    // Layout-only digest alongside: the chaos harness compares final TCAM
    // contents against a clean run's, where counters legitimately differ.
    uint64_t lh = util::hash_pair(slot->index + 1, 0x1a707u);
    const tcam::Tcam& device = slot->session->agent().device().tcam();
    for (size_t addr = 0; addr < device.capacity(); ++addr) {
      if (auto id = device.at(addr)) {
        h = util::hash_pair(h, util::hash_pair(addr, *id));
        lh = util::hash_pair(lh, util::hash_pair(addr, *id));
      }
    }
    report.fleet_fingerprint += h;
    report.layout_fingerprint += lh;
    report.delta_fingerprint +=
        util::hash_pair(slot->index + 1, slot->delta_chain);
  }
  for (const auto& shard : fleet.shards) {
    report.compile_vt_ms = std::max(report.compile_vt_ms, shard->vt_ms);
    report.shard_steps += shard->steps;
  }
  report.steals = fleet.steals.load(std::memory_order_relaxed);
  report.shard_kills = fleet.shard_kills.load(std::memory_order_relaxed);
  report.kills_escaped = fleet.kills_escaped.load(std::memory_order_relaxed);
  report.runtime = merge_session_stats(std::move(stats));
  // Quarantined switches are excluded from the fleet makespan (their rejoin
  // latencies are reported on their own); with every switch quarantined the
  // full merged makespan is all that is left.
  report.makespan_ms = report.active_switches > 0 ? active_makespan
                                                  : report.runtime.makespan_ms;
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return report;
}

}  // namespace ruletris::runtime
