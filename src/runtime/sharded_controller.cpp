#include "runtime/sharded_controller.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "classbench/generator.h"
#include "compiler/ruletris_compiler.h"
#include "frozen/delta.h"
#include "frozen/publish.h"
#include "proto/codec.h"
#include "util/hash.h"

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
  /// Keep delta blobs in the sealed ring records (failover reconstruction
  /// or quarantine re-admission needs the bytes, not just the hashes).
  bool retain_blobs = false;

  // Compile side — guarded by the owning CompileShard's lock; ownership
  // moves wholesale to the adopting shard on failover. Deltas are sealed
  // from the engine root's recorded churn; only audited switches capture
  // the policy after epoch 1. The engine is built at the first seal and
  // freed at the last, on the worker that sealed it.
  std::unique_ptr<ChurnEngine> engine;
  bool sealed = false;  // every epoch published and the ring closed
  /// Epoch-1 capture, kept only where something reads it: the replay audit,
  /// failover reconstruction and re-admission verification.
  frozen::PolicyImage base_image;
  /// Audited switches: the latest epoch's capture, the diff source of the
  /// recorded ≡ diffed oracle and the replay audit's expected image.
  frozen::PolicyImage audit_image;
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

  // Session side — touched only by the dispatch worker holding its claim;
  // the session is freed by the worker that finalizes it.
  std::unique_ptr<SwitchSession> session;
  size_t starved = 0;
  SessionStats stats;
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

SwitchTask default_task(const CompileSpec& spec, size_t sw) {
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

/// A replayed blob chain: the image it reproduces and the hash_pair fold
/// over the sealed delta hashes it walked.
struct ChainReplay {
  frozen::PolicyImage image;
  uint64_t chain = 0;
};

/// The one blob-chain replay: the switch's epoch-1 base image through its
/// published delta blobs up to epoch `upto` (>= 1), read from the ring
/// records through the switch's source, so it is lock-free and sees across
/// a failover splice. Verifies epoch 1's hash against the frozen base image
/// and every blob against its sealed hash; nullopt on a broken link.
/// Decoding deltas bumps the active rule-id counter, so the replay always
/// runs in a scratch namespace and never perturbs the switch's real stream.
std::optional<ChainReplay> replay_chain(const SwitchSlot& slot, uint64_t upto) {
  RuleId scratch = (static_cast<RuleId>(slot.index) + 1) << 48;
  flowspace::ScopedRuleIdNamespace ns(&scratch);
  const uint64_t base_hash = slot.source->rec(1).delta_hash;
  if (hash_bytes(frozen::freeze(slot.base_image)) != base_hash) {
    return std::nullopt;
  }
  ChainReplay out{slot.base_image, util::hash_pair(0, base_hash)};
  for (uint64_t e = 2; e <= upto; ++e) {
    const SealedEpoch& rec = slot.source->rec(e);
    if (!rec.delta || hash_bytes(*rec.delta) != rec.delta_hash) {
      return std::nullopt;
    }
    frozen::apply_delta(out.image, frozen::decode_delta(*rec.delta));
    out.chain = util::hash_pair(out.chain, rec.delta_hash);
  }
  return out;
}

/// Compiles and seals one epoch for the shard's next unfinished switch.
/// Caller holds the shard lock. Returns false when every stream is sealed.
bool seal_next(CompileShard& shard, const CompileSpec& spec) {
  SwitchSlot* slot = nullptr;
  for (size_t probe = 0; probe < shard.owned.size(); ++probe) {
    SwitchSlot* cand = shard.owned[(shard.cursor + probe) % shard.owned.size()];
    if (!cand->sealed) {
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
    }
    if (slot->audited || slot->retain_blobs) sealed.delta = std::move(blob);
  }
  slot->delta_chain = util::hash_pair(slot->delta_chain, sealed.delta_hash);

  frozen::PublishRing<SealedEpoch>& ring =
      slot->cont_ring ? *slot->cont_ring : *slot->ring;
  const bool last = slot->engine->done();
  ring.publish(std::make_unique<SealedEpoch>(std::move(sealed)));
  if (last) {
    // Everything the session will read after observing closed() must be in
    // place before close()'s release store.
    slot->expected = slot->engine->current_rules();
    slot->cover_overflows = frontend.root().cover_overflows();
    if (slot->audited && slot->audit_passed) {
      // The published blobs, this last one included, must replay the base
      // image to the final capture.
      const std::optional<ChainReplay> replay = replay_chain(*slot, epoch);
      slot->audit_passed = replay && replay->image == slot->audit_image;
    }
    ring.close();
    // The stream is complete: the worker that finished it frees the
    // compile state, so no serial teardown follows the sweep. The ring,
    // the source and the images stay for the session, the re-admission
    // replay and the report.
    slot->engine.reset();
    slot->sealed = true;
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
    if (slot->sealed) continue;  // already finished
    // The engine dies with its shard; only the published ring, the pristine
    // task copy and the id checkpoint survive.
    slot->engine.reset();
    Orphan o{slot, dead.kill_at_ms, dead.vt_ms};
    CompileShard& target = *survivors[rr++ % survivors.size()];
    std::lock_guard<std::mutex> g(target.adopt_mu);
    target.pending.push_back(o);
  }
  dead.remaining = 0;
  fleet.resolve_kill(dead.index);  // release: after the orphans are queued
}

/// Adopts one orphan: verify the published blob chain, rebuild the engine
/// from the pristine task (ids replay identically), charge the replay to
/// this shard's clock, splice a fresh continuation ring into the session's
/// source. Caller holds the adopting shard's lock.
void adopt_slot(CompileShard& shard, const Orphan& o, const CompileSpec& spec) {
  SwitchSlot& slot = *o.slot;
  // Clamp to the dead shard's final clock: every epoch already published is
  // ready at or below the floor, so the continued ready times stay strictly
  // increasing on the spliced stream.
  shard.vt_ms = std::max(shard.vt_ms, o.floor);
  const uint64_t published = slot.ring->sealed();

  // 1. Reconstruct the authoritative compile state from the hash-chained
  // RTDZ delta blobs — the shard-handoff currency — verifying every link.
  bool ok = true;
  frozen::PolicyImage replayed;
  if (published >= 1) {
    std::optional<ChainReplay> replay = replay_chain(slot, published);
    ok = replay && replay->chain == slot.delta_chain;
    if (replay) replayed = std::move(replay->image);
  }

  // 2. Rebuild the engine from the pristine task and re-step it to the
  // published frontier. The id counter rewinds to its post-task checkpoint,
  // so inside the switch's namespace the replayed compile allocates exactly
  // the ids the dead shard allocated.
  slot.id_counter = slot.id_rebuild_base;
  flowspace::ScopedRuleIdNamespace ns(&slot.id_counter);
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
                         const CompileSpec& spec) {
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

/// True when nothing can ever land on the shard again. Caller holds the
/// shard's claim.
bool shard_retired(CompileShard& shard, const Fleet& fleet) {
  if (shard.killed || shard.remaining != 0) return false;
  if (shard.kill_at_ms >= 0.0) return false;  // kill pending: stay claimable
  if (shard.adoptable) {
    if (fleet.min_unresolved_kill() < kInf) return false;  // may inherit orphans
    std::lock_guard<std::mutex> g(shard.adopt_mu);
    if (!shard.pending.empty()) return false;
  }
  return true;
}

/// One shard claim: fire due kills, integrate due orphans and seal epochs
/// until every owned stream is sealed, the kill fires, or the compile-side
/// horizon blocks — never stepping past an unresolved kill time (the rule
/// that keeps adoption points schedule-independent). Running the shard's
/// switches to the end in one claim keeps their compile state in cache;
/// sessions are pumped between claims. Caller holds the shard's claim.
SweepStep run_shard(CompileShard& shard, Fleet& fleet, const CompileSpec& spec) {
  bool progress = false;
  for (;;) {
    if (!shard.killed && shard.kill_at_ms >= 0.0) {
      // A kill fires at the first step boundary at or past its virtual
      // time — a pure function of the shard's own step sequence.
      if (shard.vt_ms >= shard.kill_at_ms) {
        process_kill(shard, fleet);
        return SweepStep::kDone;
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
  if (shard_retired(shard, fleet)) return SweepStep::kDone;
  return progress ? SweepStep::kProgress : SweepStep::kIdle;
}

/// Pumps one session as far as its sealed horizon allows. Caller holds the
/// slot's claim.
SweepStep pump_slot(SwitchSlot& slot, double deadline_ms) {
  const bool progress = slot.session->pump_published();
  if (slot.session->done()) {
    // done ⇒ the session observed closed(), so slot.expected is visible
    // and the shard will never write this slot again.
    slot.stats = slot.session->finalize(slot.expected);
    slot.session.reset();  // by the finishing worker: no serial teardown
    return SweepStep::kDone;
  }
  if (progress) return SweepStep::kProgress;
  if (slot.session->now_ms() <= deadline_ms) {
    ++slot.starved;  // sealed horizon reached; go compile instead
    return SweepStep::kIdle;
  }
  // Deadline miss with the compile possibly still running: finalize
  // against nothing (reports non-convergence) rather than racing the shard
  // for slot.expected.
  slot.stats = slot.session->finalize({});
  slot.session.reset();
  return SweepStep::kDone;
}

}  // namespace

void Controller::validate_compiled(const CompileSpec& spec) const {
  if (cfg_.n_switches == 0) {
    throw std::invalid_argument("FleetSpec: n_switches must be > 0");
  }
  if (spec.n_shards == 0) {
    throw std::invalid_argument("FleetSpec: n_shards must be > 0");
  }
  if (spec.n_shards > cfg_.n_switches) {
    throw std::invalid_argument(
        "FleetSpec: n_shards must not exceed n_switches (" +
        std::to_string(spec.n_shards) + " > " +
        std::to_string(cfg_.n_switches) + ")");
  }
  if (cfg_.n_threads == 0) {
    throw std::invalid_argument("FleetSpec: n_threads must be > 0");
  }
  if (cfg_.tcam_capacity == 0) {
    // Sessions start before anything is compiled: there is no expected
    // rule set to size the TCAM from.
    throw std::invalid_argument("FleetSpec: tcam_capacity must be > 0");
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
    if (b.sw >= cfg_.n_switches) {
      throw std::invalid_argument(
          "FleetSpec: chaos blackout targets switch " + std::to_string(b.sw) +
          " of " + std::to_string(cfg_.n_switches));
    }
    if (b.window.duration_ms <= 0.0 || b.window.at_ms < 0.0) {
      throw std::invalid_argument(
          "FleetSpec: blackout windows need at_ms >= 0 and duration_ms > 0");
    }
  }
}

FleetReport Controller::run_compiled(const CompileSpec& spec) {
  validate_compiled(spec);
  const auto wall_start = std::chrono::steady_clock::now();
  const size_t n = cfg_.n_switches;
  const size_t n_shards = spec.n_shards;

  std::vector<double> kill_at(n_shards, -1.0);
  for (const ShardKill& k : spec.chaos.shard_kills) {
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
      slot->task = spec.make_task ? spec.make_task(i) : default_task(spec, i);
    }
    slot->audited = spec.audit_stride != 0 && i % spec.audit_stride == 0;
    slot->retain_blobs = kill_at[i % n_shards] >= 0.0;  // at risk
    if (slot->retain_blobs) {
      // Failover provisions: the pristine task and the id checkpoint the
      // adopting shard rewinds to when it rebuilds the engine.
      slot->task_backup = slot->task;
      slot->id_rebuild_base = slot->id_counter;
    }
    slot->ring = std::make_unique<frozen::PublishRing<SealedEpoch>>(
        slot->task.churn.updates + 1);
    slot->source = std::make_unique<RingEpochSource>(*slot->ring);
    fleet.slots.push_back(std::move(slot));
  }
  for (const AgentBlackout& b : spec.chaos.blackouts) {
    // A blackout target may quarantine and re-admit: keep its blobs so the
    // warm-boot catch-up material is verifiable.
    fleet.slots[b.sw]->retain_blobs = true;
  }
  for (size_t i = 0; i < n; ++i) {
    SwitchSlot* raw = fleet.slots[i].get();
    // Warm-boot catch-up verification at re-admission: the published blob
    // chain up to the agent's anchor must replay. Lock-free: only ring
    // records (acquire-published) and base_image (ordered by the epoch-1
    // publish the anchor implies) are read. Without retained blobs (switch
    // never scheduled for chaos) the check passes trivially.
    raw->session = make_session(
        i, *raw->source, 0, spec.chaos.blackouts, [raw](uint64_t anchor) {
          if (!raw->retain_blobs) return true;
          const uint64_t upto =
              std::min<uint64_t>(anchor, raw->source->available());
          return upto < 1 || replay_chain(*raw, upto).has_value();
        });
    raw->session->start();  // virtual time 0: nothing is sealed yet
  }

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
    fleet.shards.push_back(std::move(shard));
  }
  for (const ShardKill& k : spec.chaos.shard_kills) {
    auto ks = std::make_unique<Fleet::KillState>();
    ks->shard = k.shard;
    ks->at_ms = k.at_vt_ms;
    fleet.kills.push_back(std::move(ks));
  }

  const size_t steals = sweep(
      n, [&](size_t i) { return pump_slot(*fleet.slots[i], cfg_.knobs.deadline_ms); },
      n_shards,
      [&](size_t k) { return run_shard(*fleet.shards[k], fleet, spec); });

  FleetReport report;
  report.switches = n;
  report.shards = n_shards;
  report.threads = cfg_.n_threads;
  double active_makespan = 0.0;
  std::vector<SessionStats> stats;
  stats.reserve(n);
  for (const auto& slot : fleet.slots) {
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
    for (const auto& [addr, id] : slot->stats.tcam_layout) {
      h = util::hash_pair(h, util::hash_pair(addr, id));
      lh = util::hash_pair(lh, util::hash_pair(addr, id));
    }
    report.fleet_fingerprint += h;
    report.layout_fingerprint += lh;
    report.delta_fingerprint +=
        util::hash_pair(slot->index + 1, slot->delta_chain);
    stats.push_back(std::move(slot->stats));
  }
  for (const auto& shard : fleet.shards) {
    report.compile_vt_ms = std::max(report.compile_vt_ms, shard->vt_ms);
    report.shard_steps += shard->steps;
  }
  report.steals = steals;
  report.shard_kills = fleet.shard_kills.load(std::memory_order_relaxed);
  report.kills_escaped = fleet.kills_escaped.load(std::memory_order_relaxed);
  report.runtime = merge_session_stats(std::move(stats));
  // Quarantined switches are excluded from the fleet makespan (their rejoin
  // latencies are reported on their own); with every switch quarantined the
  // full merged makespan is all that is left.
  report.makespan_ms = report.active_switches > 0 ? active_makespan
                                                  : report.runtime.makespan_ms;
  // What is left of the per-switch state (rings, sources, images) is freed
  // before the clock stops, so wall_ms is the whole call.
  fleet.slots.clear();
  fleet.shards.clear();
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return report;
}

}  // namespace ruletris::runtime
