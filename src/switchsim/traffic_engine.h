// Data-plane traffic engine: the "millions of users" workload.
//
// Synthesizes a Zipf-skewed flow arrival stream (util::FlowStream), maps
// each flow to a concrete packet header targeted at the full rule table,
// and performs real lookups against the two-level cache: TCAM fast path
// first, tuple-space SoftTable on a miss or cover punt. Lookups are sharded
// across util::ThreadPool; the stream is counter-based and the cache is
// read-only during a lookup phase, so per-rule hit counts — and everything
// derived from them, including the FDRC swap plans — are bit-identical
// across runs and thread counts.
//
// A shard classifies its chunk in blocks of 16 packets, so independent
// packets' cache misses overlap: it prefetches every flow's target rule
// before building any packet from one, then hands the block to
// CacheFlowManager::classify_batch, whose slow path descends the block's
// punts together (TupleSpace::find_batch). Every packet's answer is the
// per-packet classify()'s, so where a block is cut changes nothing.
//
// Epoch loop (the serial points that make parallel lookups safe):
//   lookup phase (parallel, const)  ->  merge shard hit counts (additive)
//   -> flow churn (expiry/arrival remaps)  ->  admission rebalance under
//   traffic (swaps measured in TCAM entry writes x 0.6 ms)  ->  consistency
//   sampling (lookup_consistent on fresh packets)  ->  hit aging.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "flowspace/rule.h"
#include "tcam/cacheflow.h"
#include "util/flow_stream.h"
#include "util/thread_pool.h"

namespace ruletris::switchsim {

struct TrafficConfig {
  size_t flows = 1 << 20;          // concurrent-flow universe
  double zipf_alpha = 1.0;         // flow popularity skew
  double churn_rate = 0.0;         // expected flow remaps per packet
  size_t packets_per_epoch = 50000;
  size_t epochs = 4;
  uint64_t seed = 1;
  size_t n_threads = 1;            // lookup shards (1 = serial)
  tcam::CacheFlowManager::AdmissionPolicy policy =
      tcam::CacheFlowManager::AdmissionPolicy::kFlowDriven;
  size_t rebalance_swaps = 64;     // per-epoch FDRC swap budget
  double warm_fill = 0.85;         // initial fill fraction of TCAM capacity
  size_t consistency_samples = 32; // packets audited per epoch
};

struct EpochStats {
  uint64_t packets = 0;
  uint64_t fast_hits = 0;
  size_t churn_events = 0;
  size_t swaps = 0;
  size_t entry_writes = 0;     // TCAM writes caused by this epoch's rebalance
  double update_ms = 0.0;      // entry_writes x 0.6 ms, under live traffic
  double lookup_wall_ms = 0.0; // wall clock of the sharded lookup phase
  double hit_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(fast_hits) /
                              static_cast<double>(packets);
  }
};

struct TrafficReport {
  std::vector<EpochStats> epochs;
  uint64_t packets = 0;
  uint64_t fast_hits = 0;
  size_t churn_events = 0;
  size_t swaps = 0;
  size_t entry_writes = 0;
  size_t consistency_violations = 0;  // must be 0
  // Rebalance fallbacks (CacheFlowManager::Stats) during the run.
  size_t failed_swaps = 0;
  size_t rebalance_early_stops = 0;
  size_t restore_failures = 0;
  double update_ms = 0.0;
  double lookup_wall_ms = 0.0;
  // Determinism fingerprints: per-rule hit counts folded in rule order, and
  // the final TCAM layout folded by address. Equal across runs and thread
  // counts for a fixed seed.
  uint64_t hit_checksum = 0;
  uint64_t layout_checksum = 0;

  double hit_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(fast_hits) /
                              static_cast<double>(packets);
  }
  double pkts_per_s() const {
    return lookup_wall_ms <= 0.0
               ? 0.0
               : static_cast<double>(packets) / (lookup_wall_ms / 1000.0);
  }
};

/// Deterministic packet for a flow identity over `rules`: the flow picks a
/// rule (uniformly by identity hash) and fills that rule's wildcard bits
/// from its own hash stream, so every packet of a flow is identical and may
/// legitimately land in a more specific overlapping rule.
flowspace::Packet synth_packet(const std::vector<flowspace::Rule>& rules,
                               uint64_t flow_id);

class TrafficEngine {
 public:
  /// `rules` must be the same full table (same order) the manager holds.
  TrafficEngine(tcam::CacheFlowManager& manager,
                const std::vector<flowspace::Rule>& rules, TrafficConfig config);

  /// Warm (per policy) + the full epoch loop.
  TrafficReport run();

  /// One sharded lookup phase + churn for epoch `e`, crediting hit counters
  /// but performing no admission work — the building block fig11 uses to
  /// source flow-driven swap streams while timing the swaps itself.
  EpochStats run_lookup_epoch(uint64_t e);

  /// synth_packet over the engine's table.
  flowspace::Packet packet_for(uint64_t flow_id) const {
    return synth_packet(rules_, flow_id);
  }

  const util::FlowStream& stream() const { return stream_; }

 private:
  void finalize(TrafficReport& report) const;

  /// One lookup shard's hit counters, indexed by the manager's rule_order()
  /// position. `touched` lists the positions that went non-zero, so the
  /// merge visits (and re-zeroes) only those instead of the whole table.
  struct Shard {
    std::vector<uint64_t> hits;
    std::vector<size_t> touched;
    uint64_t fast = 0;
  };

  tcam::CacheFlowManager& manager_;
  const std::vector<flowspace::Rule>& rules_;
  TrafficConfig config_;
  util::FlowStream stream_;
  std::vector<Shard> shards_;               // one per lookup thread
  std::unique_ptr<util::ThreadPool> pool_;  // null when serial
};

}  // namespace ruletris::switchsim
