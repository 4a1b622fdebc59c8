#include "flowspace/rule_index.h"

#include <algorithm>
#include <stdexcept>

namespace ruletris::flowspace {

uint32_t RuleIndex::bucket_of(const TernaryMatch& m) {
  const FieldTernary& ft = m.field(FieldId::kIpProto);
  if (ft.mask == field_full_mask(FieldId::kIpProto)) return ft.value;
  return kWildcardBucket;
}

uint32_t RuleIndex::dst_key_of(const TernaryMatch& m) {
  const FieldTernary& ft = m.field(FieldId::kDstIp);
  if ((ft.mask & kDstOctetMask) == kDstOctetMask) return ft.value >> 24;
  return kAnyDst;
}

bool RuleIndex::dst_exact(const TernaryMatch& m, uint32_t& value) {
  const FieldTernary& ft = m.field(FieldId::kDstIp);
  if (ft.mask != field_full_mask(FieldId::kDstIp)) return false;
  value = ft.value;
  return true;
}

void RuleIndex::insert(RuleId id, const TernaryMatch& match) {
  if (by_id_.contains(id)) throw std::invalid_argument("RuleIndex::insert: duplicate id");
  const uint32_t bucket = bucket_of(match);
  const uint32_t dst_key = dst_key_of(match);
  DstBucket& db = buckets_[bucket][dst_key];
  uint32_t value = 0;
  const bool is_exact = dst_exact(match, value);
  (is_exact ? db.exact[value] : db.coarse).push_back(Entry{id, match});
  by_id_.insert(id, Slot{bucket, dst_key, is_exact, value});
}

void RuleIndex::erase(RuleId id) {
  const Slot* found = by_id_.find(id);
  if (found == nullptr) return;
  const Slot slot = *found;
  auto bit = buckets_.find(slot.bucket);
  auto dit = bit->second.find(slot.dst_key);
  DstBucket& db = dit->second;
  auto& vec = slot.is_exact ? db.exact.at(slot.exact_value) : db.coarse;
  vec.erase(std::remove_if(vec.begin(), vec.end(),
                           [id](const Entry& e) { return e.id == id; }),
            vec.end());
  // Prune emptied storage so long-lived indexes under churn do not
  // accumulate dead buckets (and wildcard queries do not scan them).
  if (vec.empty() && slot.is_exact) db.exact.erase(slot.exact_value);
  if (db.empty()) {
    bit->second.erase(dit);
    if (bit->second.empty()) buckets_.erase(bit);
  }
  by_id_.erase(id);
}

void RuleIndex::clear() {
  buckets_.clear();
  by_id_.clear();
}

std::vector<RuleId> RuleIndex::find_overlapping(const TernaryMatch& m) const {
  std::vector<RuleId> out;
  out.reserve(16);
  for_each_overlapping(m, [&out](RuleId id, const TernaryMatch&) { out.push_back(id); });
  return out;
}

RuleIndex::Stats RuleIndex::stats() const {
  Stats s;
  for (const auto& [proto, dst] : buckets_) {
    (void)proto;
    for (const auto& [key, db] : dst) {
      (void)key;
      // Each exact-address group and each coarse vector is one contiguous
      // scan unit, so count them as separate buckets.
      for (const auto& [addr, entries] : db.exact) {
        (void)addr;
        ++s.buckets;
        s.entries += entries.size();
        s.largest_bucket = std::max(s.largest_bucket, entries.size());
      }
      if (!db.coarse.empty()) {
        ++s.buckets;
        s.entries += db.coarse.size();
        s.largest_bucket = std::max(s.largest_bucket, db.coarse.size());
      }
    }
  }
  return s;
}

size_t RuleIndex::approx_size() const { return stats().entries; }

}  // namespace ruletris::flowspace
