#include "switchsim/traffic_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/hash.h"
#include "util/timer.h"

namespace ruletris::switchsim {

using flowspace::FieldId;
using flowspace::kAllFields;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

namespace {

/// Packets classified together, per shard: enough independent lookups to
/// overlap their cache misses, few enough that a block's state stays in
/// registers and L1.
constexpr size_t kLookupBatch = 16;

/// Index of the rule `flow_id`'s packets are built from.
size_t target_of(const std::vector<Rule>& rules, uint64_t flow_id) {
  return static_cast<size_t>(flow_id % rules.size());
}

}  // namespace

TrafficEngine::TrafficEngine(tcam::CacheFlowManager& manager,
                             const std::vector<Rule>& rules, TrafficConfig config)
    : manager_(manager),
      rules_(rules),
      config_(config),
      stream_(config.seed, config.flows, config.zipf_alpha) {
  if (rules_.empty()) throw std::invalid_argument("TrafficEngine: empty table");
  if (manager_.rule_order().size() != rules_.size()) {
    throw std::invalid_argument("TrafficEngine: table differs from the manager's");
  }
  shards_.resize(std::max<size_t>(1, config_.n_threads));
  for (Shard& s : shards_) s.hits.assign(manager_.rule_order().size(), 0);
  if (shards_.size() > 1) pool_ = std::make_unique<util::ThreadPool>(shards_.size());
}

Packet synth_packet(const std::vector<Rule>& rules, uint64_t flow_id) {
  const Rule& target = rules[target_of(rules, flow_id)];
  Packet p = target.match.sample_packet();
  // Fill the wildcard bits from the flow's hash stream: flows targeting the
  // same rule stay distinguishable, and a filled packet may legitimately
  // fall into a more specific overlapping rule — realistic, and exactly the
  // ambiguity the cover-set machinery must punt correctly.
  util::Rng bits(util::hash_pair(flow_id, 0xb17f111ULL));
  for (FieldId f : kAllFields) {
    const auto& t = target.match.field(f);
    const uint32_t full = flowspace::field_full_mask(f);
    const uint32_t noise = bits.next_u32() & ~t.mask & full;
    p.set(f, (p.get(f) & t.mask) | noise);
  }
  return p;
}

EpochStats TrafficEngine::run_lookup_epoch(uint64_t e) {
  EpochStats stats;
  stats.packets = config_.packets_per_epoch;

  util::Stopwatch watch;
  // A block's packets are independent, so their cache misses overlap: every
  // flow's target rule is prefetched before any packet is built from one,
  // and the slow path descends the block's punts together.
  auto lookup_range = [&](Shard& shard, size_t begin, size_t end) {
    uint64_t fast = 0;
    uint64_t flow[kLookupBatch] = {};
    Packet packets[kLookupBatch] = {};
    tcam::CacheFlowManager::LookupOutcome outcomes[kLookupBatch] = {};
    for (size_t block = begin; block < end; block += kLookupBatch) {
      const size_t n = std::min(kLookupBatch, end - block);
      for (size_t j = 0; j < n; ++j) {
        flow[j] = stream_.at(e, block + j).flow_id;
        const flowspace::TernaryMatch& m = rules_[target_of(rules_, flow[j])].match;
        __builtin_prefetch(&m);
        __builtin_prefetch(reinterpret_cast<const char*>(&m + 1) - 1);
      }
      for (size_t j = 0; j < n; ++j) packets[j] = packet_for(flow[j]);
      manager_.classify_batch({packets, n}, {outcomes, n});
      for (size_t j = 0; j < n; ++j) {
        const auto& out = outcomes[j];
        if (out.rule != nullptr && shard.hits[out.position]++ == 0) {
          shard.touched.push_back(out.position);
        }
        if (out.fast_path) ++fast;
      }
    }
    shard.fast += fast;
  };
  if (!pool_) {
    lookup_range(shards_[0], 0, config_.packets_per_epoch);
  } else {
    util::ChunkCursor cursor(
        0, config_.packets_per_epoch,
        util::ChunkCursor::suggest_chunk(config_.packets_per_epoch, shards_.size()));
    std::atomic<size_t> next_slot{0};
    util::run_on_workers(*pool_, [&] {
      return [&, slot = next_slot.fetch_add(1)] {
        size_t b = 0, fin = 0;
        while (cursor.next(b, fin)) lookup_range(shards_[slot], b, fin);
      };
    });
  }
  stats.lookup_wall_ms = watch.elapsed_ms();

  // Merge: per-rule sums are order-independent integers, so crediting shard
  // by shard gives the same totals as a serial run.
  for (Shard& shard : shards_) {
    for (size_t pos : shard.touched) {
      manager_.add_hits_at(pos, shard.hits[pos]);
      shard.hits[pos] = 0;
    }
    shard.touched.clear();
    stats.fast_hits += shard.fast;
    shard.fast = 0;
  }

  // Flow expiry/arrival churn at the epoch boundary.
  const size_t churn_events = static_cast<size_t>(
      std::llround(config_.churn_rate * static_cast<double>(stats.packets)));
  stats.churn_events = stream_.churn(e, churn_events);
  return stats;
}

TrafficReport TrafficEngine::run() {
  TrafficReport report;
  manager_.warm(config_.policy,
                static_cast<size_t>(config_.warm_fill *
                                    static_cast<double>(manager_.tcam().capacity())));

  for (uint64_t e = 0; e < config_.epochs; ++e) {
    EpochStats stats = run_lookup_epoch(e);

    // Admission maintenance under live traffic: the swap cost (TCAM entry
    // writes x 0.6 ms) is the update latency the data plane experiences
    // between this epoch and the next.
    const size_t writes_before = manager_.tcam().stats().entry_writes;
    const tcam::CacheFlowManager::Stats fallbacks_before = manager_.stats();
    stats.swaps = manager_.rebalance(config_.policy, config_.rebalance_swaps);
    report.failed_swaps += manager_.stats().failed_swaps - fallbacks_before.failed_swaps;
    report.rebalance_early_stops +=
        manager_.stats().early_stops - fallbacks_before.early_stops;
    report.restore_failures +=
        manager_.stats().restore_failures - fallbacks_before.restore_failures;
    stats.entry_writes = manager_.tcam().stats().entry_writes - writes_before;
    stats.update_ms = static_cast<double>(stats.entry_writes) * tcam::kEntryWriteMs;

    // Fast-path/slow-path consistency on packets from the *post-churn,
    // post-rebalance* state — the moment a stale cache would be caught.
    for (size_t s = 0; s < config_.consistency_samples; ++s) {
      const auto ev = stream_.at(e ^ 0x5a5a5a5aULL, s);
      if (!manager_.lookup_consistent(packet_for(ev.flow_id))) {
        ++report.consistency_violations;
      }
    }

    manager_.age_hits();

    report.packets += stats.packets;
    report.fast_hits += stats.fast_hits;
    report.churn_events += stats.churn_events;
    report.swaps += stats.swaps;
    report.entry_writes += stats.entry_writes;
    report.update_ms += stats.update_ms;
    report.lookup_wall_ms += stats.lookup_wall_ms;
    report.epochs.push_back(stats);
  }
  finalize(report);
  return report;
}

void TrafficEngine::finalize(TrafficReport& report) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Rule& r : rules_) {
    h = util::hash_pair(h, util::hash_pair(r.id, manager_.hits(r.id)));
  }
  report.hit_checksum = h;

  uint64_t l = 0x2545f4914f6cdd1dULL;
  const tcam::Tcam& t = manager_.tcam();
  for (size_t addr = 0; addr < t.capacity(); ++addr) {
    const auto id = t.at(addr);
    // Covers are canonicalized to (target id, cover flag): their own ids
    // come from the process-wide counter and vary run to run.
    uint64_t canonical = 0, is_cover = 0;
    if (id) {
      const RuleId target = manager_.cover_target(*id);
      is_cover = target != flowspace::kInvalidRuleId;
      canonical = is_cover ? target : *id;
    }
    l = util::hash_pair(l, util::hash_pair(addr, canonical ^ (is_cover << 63)));
  }
  report.layout_checksum = l;
}

}  // namespace ruletris::switchsim
