// Overlap index over rule matches.
//
// Incremental composition (Sec. IV-C) and bulk DAG extraction repeatedly ask
// "which rules overlap this match?". Following CoVisor, we keep an index
// instead of scanning the whole table. The index is two-level:
//
//   1. ip_proto bucket — the proto value when exactly matched, else a
//      wildcard bucket (the most selective exactly-matched field in the
//      paper's workloads);
//   2. dst_ip /8 sub-bucket — the top octet of dst_ip when the match
//      specifies all eight of those bits, else a catch-all sub-bucket;
//   3. within a /8 sub-bucket, exact (/32) dst_ip matches are hashed by
//      their full address, everything coarser stays in a scan vector.
//
// Two matches whose dst_ip top octets are both fully specified can only
// overlap when the octets are equal, so a query visits exactly one /8
// sub-bucket plus the catch-all — on prefix-heavy tables (FIBs, monitors)
// this prunes candidate scans by two orders of magnitude. The third level
// covers host-route-shaped tables (NAT pools, exact-match caches) whose
// addresses share one /8: two exact dsts only overlap when equal, so an
// exact-dst query probes a single hash group plus the coarse vector instead
// of scanning the whole octet's population. Candidates are then confirmed
// with the cheap per-field overlap test, so bucketing never affects the
// result set.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flowspace/rule.h"
#include "util/rule_id_map.h"

namespace ruletris::flowspace {

class RuleIndex {
 public:
  /// Throws std::invalid_argument on a present or invalid (kInvalidRuleId)
  /// id.
  void insert(RuleId id, const TernaryMatch& match);
  void erase(RuleId id);
  void clear();

  size_t size() const { return by_id_.size(); }

  /// Ids of all indexed matches that overlap `m` (unordered).
  std::vector<RuleId> find_overlapping(const TernaryMatch& m) const;

  /// Calls `fn(id, match)` for every indexed match that overlaps `m`, in no
  /// particular order. Allocation-free variant of find_overlapping for hot
  /// paths that immediately filter or copy the candidates.
  template <typename Fn>
  void for_each_overlapping(const TernaryMatch& m, Fn&& fn) const;

  /// Shape of the index, for bench reporting and hygiene tests.
  struct Stats {
    size_t entries = 0;         // total indexed matches
    size_t buckets = 0;         // non-empty (proto, dst) bucket vectors
    size_t largest_bucket = 0;  // worst-case single-bucket scan length
  };
  Stats stats() const;

  /// Total entries held in bucket storage. Equal to size() by invariant —
  /// erase() prunes emptied buckets — and recomputed from the buckets so
  /// tests and benches can assert that invariant cheaply.
  size_t approx_size() const;

 private:
  struct Entry {
    RuleId id;
    TernaryMatch match;
  };

  // Bucket keys. Proto: ip_proto value when exactly matched, else wildcard.
  // Dst: top octet of dst_ip when those 8 bits are all specified, else the
  // catch-all. Values are chosen outside the fields' 8-bit ranges.
  static constexpr uint32_t kWildcardBucket = 0xffffffffu;
  static constexpr uint32_t kAnyDst = 0xffffffffu;
  static constexpr uint32_t kDstOctetMask = 0xff000000u;

  static uint32_t bucket_of(const TernaryMatch& m);
  static uint32_t dst_key_of(const TernaryMatch& m);
  static bool dst_exact(const TernaryMatch& m, uint32_t& value);

  /// One (proto, /8) sub-bucket: exact /32 dsts hashed by address, coarser
  /// matches in the scan vector.
  struct DstBucket {
    std::unordered_map<uint32_t, std::vector<Entry>> exact;
    std::vector<Entry> coarse;
    bool empty() const { return exact.empty() && coarse.empty(); }
  };

  using DstBuckets = std::unordered_map<uint32_t, DstBucket>;

  /// Where an id lives, so erase() can find it without re-deriving keys.
  struct Slot {
    uint32_t bucket = 0;
    uint32_t dst_key = 0;
    bool is_exact = false;
    uint32_t exact_value = 0;
  };

  template <typename Fn>
  void scan_vector(const std::vector<Entry>& entries, const TernaryMatch& m,
                   Fn&& fn) const;
  template <typename Fn>
  void scan_bucket(const DstBucket& bucket, const TernaryMatch& m, Fn&& fn) const;
  template <typename Fn>
  void scan_dst(const DstBuckets& dst, uint32_t dst_key, const TernaryMatch& m,
                Fn&& fn) const;

  std::unordered_map<uint32_t, DstBuckets> buckets_;
  util::RuleIdMap<Slot> by_id_;
};

template <typename Fn>
void RuleIndex::scan_vector(const std::vector<Entry>& entries, const TernaryMatch& m,
                            Fn&& fn) const {
  for (const Entry& e : entries) {
    if (e.match.overlaps(m)) fn(e.id, e.match);
  }
}

template <typename Fn>
void RuleIndex::scan_bucket(const DstBucket& bucket, const TernaryMatch& m,
                            Fn&& fn) const {
  uint32_t value;
  if (dst_exact(m, value)) {
    // Exact-dst query: an exact-dst entry overlaps only on an equal address,
    // so probe that one hash group; the coarse vector still needs the scan.
    if (auto it = bucket.exact.find(value); it != bucket.exact.end()) {
      scan_vector(it->second, m, fn);
    }
  } else {
    // Coarser query: prune each exact group with one dst test (the group
    // shares its address) before confirming entries field-by-field.
    const FieldTernary& ft = m.field(FieldId::kDstIp);
    for (const auto& [addr, entries] : bucket.exact) {
      if ((addr & ft.mask) == (ft.value & ft.mask)) scan_vector(entries, m, fn);
    }
  }
  scan_vector(bucket.coarse, m, fn);
}

template <typename Fn>
void RuleIndex::scan_dst(const DstBuckets& dst, uint32_t dst_key, const TernaryMatch& m,
                         Fn&& fn) const {
  if (dst_key == kAnyDst) {
    // A dst-wildcard-ish query can overlap every sub-bucket.
    for (const auto& [key, bucket] : dst) {
      (void)key;
      scan_bucket(bucket, m, fn);
    }
    return;
  }
  if (auto it = dst.find(dst_key); it != dst.end()) scan_bucket(it->second, m, fn);
  if (auto it = dst.find(kAnyDst); it != dst.end()) scan_bucket(it->second, m, fn);
}

template <typename Fn>
void RuleIndex::for_each_overlapping(const TernaryMatch& m, Fn&& fn) const {
  const uint32_t bucket = bucket_of(m);
  const uint32_t dst_key = dst_key_of(m);
  if (bucket == kWildcardBucket) {
    // A proto-wildcard query can overlap any proto bucket.
    for (const auto& [key, dst] : buckets_) {
      (void)key;
      scan_dst(dst, dst_key, m, fn);
    }
    return;
  }
  if (auto it = buckets_.find(bucket); it != buckets_.end()) {
    scan_dst(it->second, dst_key, m, fn);
  }
  if (auto it = buckets_.find(kWildcardBucket); it != buckets_.end()) {
    scan_dst(it->second, dst_key, m, fn);
  }
}

}  // namespace ruletris::flowspace
