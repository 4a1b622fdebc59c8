#include "tcam/soft_table.h"

#include <algorithm>
#include <stdexcept>

namespace ruletris::tcam {

using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

SoftTable::SoftTable(const std::vector<Rule>& rules) {
  by_id_.reserve(rules.size());
  pool_.reserve(rules.size());
  std::vector<TupleSpace::Entry> entries;
  entries.reserve(rules.size());
  for (const Rule& r : rules) {
    entries.push_back({add_rule(r), pack_match(r.match), rank_of(r.priority, next_seq_++)});
  }
  index_.assign(entries);
}

uint32_t SoftTable::add_rule(const Rule& rule) {
  if (rule.id == flowspace::kInvalidRuleId) {
    throw std::invalid_argument("SoftTable::insert: invalid rule id");
  }
  if (contains(rule.id)) {
    throw std::invalid_argument("SoftTable::insert: duplicate rule id");
  }
  uint32_t idx = static_cast<uint32_t>(pool_.size());
  if (free_.empty()) {
    if (pool_.size() >= TupleSpace::kNone) throw std::length_error("SoftTable: too many rules");
    pool_.push_back(rule);
  } else {
    idx = free_.back();
    free_.pop_back();
    pool_[idx] = rule;
  }
  by_id_.insert(rule.id, idx);
  return idx;
}

TupleSpace::Rank SoftTable::rank_of(int32_t priority, uint64_t seq) {
  // Flipping the sign bit orders int32 priorities as unsigned words.
  const uint64_t biased = static_cast<uint32_t>(priority) ^ 0x80000000u;
  return (biased << kSeqBits) | (kSeqLimit - 1 - seq);
}

void SoftTable::resequence() {
  std::vector<uint32_t> live;
  for (uint32_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i].id != flowspace::kInvalidRuleId) live.push_back(i);
  }
  // Larger low rank bits mean an earlier insert.
  std::sort(live.begin(), live.end(), [this](uint32_t a, uint32_t b) {
    return (index_.rank(a) & (kSeqLimit - 1)) > (index_.rank(b) & (kSeqLimit - 1));
  });
  std::vector<Rule> oldest_first;
  oldest_first.reserve(live.size());
  for (uint32_t i : live) oldest_first.push_back(std::move(pool_[i]));
  *this = SoftTable(oldest_first);
}

void SoftTable::insert(const Rule& rule) {
  if (next_seq_ == kSeqLimit) resequence();
  const uint32_t idx = add_rule(rule);
  index_.insert(idx, pack_match(rule.match), rank_of(rule.priority, next_seq_++));
}

bool SoftTable::erase(RuleId id) {
  const uint32_t* found = by_id_.find(id);
  if (found == nullptr) return false;
  const uint32_t idx = *found;
  by_id_.erase(id);
  index_.erase(idx, pack_match(pool_[idx].match));
  pool_[idx] = Rule{};  // drop the rule copy's heap state now
  free_.push_back(idx);
  return true;
}

const Rule* SoftTable::lookup(const Packet& p) const {
  const uint32_t idx = index_.find(pack_fields(p.fields));
  return idx == TupleSpace::kNone ? nullptr : &pool_[idx];
}

void SoftTable::lookup_batch(std::span<const Packet> packets, std::span<const Rule*> out) const {
  if (packets.size() != out.size()) {
    throw std::invalid_argument("SoftTable::lookup_batch: packets and out differ in length");
  }
  PackedKey keys[TupleSpace::kBatch] = {};
  TupleSpace::Handle found[TupleSpace::kBatch] = {};
  for (size_t base = 0; base < packets.size(); base += TupleSpace::kBatch) {
    const size_t n = std::min(TupleSpace::kBatch, packets.size() - base);
    for (size_t j = 0; j < n; ++j) keys[j] = pack_fields(packets[base + j].fields);
    index_.find_batch({keys, n}, {found, n});
    for (size_t j = 0; j < n; ++j) {
      out[base + j] = found[j] == TupleSpace::kNone ? nullptr : &pool_[found[j]];
    }
  }
}

const Rule* SoftTable::lookup_counted(const Packet& p) {
  const uint32_t idx = index_.find_counted(pack_fields(p.fields));
  return idx == TupleSpace::kNone ? nullptr : &pool_[idx];
}

}  // namespace ruletris::tcam
