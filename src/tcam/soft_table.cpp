#include "tcam/soft_table.h"

#include <algorithm>
#include <limits>

#include "util/hash.h"

namespace ruletris::tcam {

using flowspace::FieldId;
using flowspace::kAllFields;
using flowspace::kNumFields;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

size_t SoftTable::ArrayHash::operator()(const MaskKey& k) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < kNumFields; i += 2) {
    const uint64_t word =
        (static_cast<uint64_t>(k[i]) << 32) |
        (i + 1 < kNumFields ? static_cast<uint64_t>(k[i + 1]) : 0u);
    h = util::hash_pair(h, word);
  }
  return h;
}

namespace {

std::array<uint32_t, kNumFields> mask_key_of(const Rule& r) {
  std::array<uint32_t, kNumFields> k{};
  for (FieldId f : kAllFields) {
    k[flowspace::field_index(f)] = r.match.field(f).mask;
  }
  return k;
}

std::array<uint32_t, kNumFields> value_key_of(const Rule& r) {
  std::array<uint32_t, kNumFields> k{};
  for (FieldId f : kAllFields) {
    k[flowspace::field_index(f)] = r.match.field(f).value;
  }
  return k;
}

}  // namespace

SoftTable::SoftTable(const std::vector<Rule>& rules) {
  for (const Rule& r : rules) insert(r);
}

void SoftTable::refresh_order() {
  order_.resize(tuples_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
    if (tuples_[a].max_priority != tuples_[b].max_priority) {
      return tuples_[a].max_priority > tuples_[b].max_priority;
    }
    return a < b;  // stable, deterministic chain
  });
}

void SoftTable::recompute_max(Tuple& t) {
  t.max_priority = std::numeric_limits<int32_t>::min();
  for (const auto& [key, entries] : t.buckets) {
    (void)key;
    for (const Entry& e : entries) {
      t.max_priority = std::max(t.max_priority, e.rule.priority);
    }
  }
}

void SoftTable::insert(const Rule& rule) {
  if (by_id_.count(rule.id)) return;  // ids are unique table-wide
  const MaskKey masks = mask_key_of(rule);
  auto [it, created] = tuple_index_.try_emplace(masks, tuples_.size());
  if (created) {
    tuples_.emplace_back();
    tuples_.back().masks = masks;
    tuples_.back().max_priority = std::numeric_limits<int32_t>::min();
  }
  Tuple& t = tuples_[it->second];
  const MaskKey values = value_key_of(rule);
  t.buckets[values].push_back(Entry{rule, next_seq_++});
  ++t.entries;
  by_id_[rule.id] = Locator{it->second, values};
  const bool order_stale = created || rule.priority > t.max_priority;
  t.max_priority = std::max(t.max_priority, rule.priority);
  if (order_stale) refresh_order();
}

bool SoftTable::erase(RuleId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  Tuple& t = tuples_[it->second.tuple];
  auto bit = t.buckets.find(it->second.key);
  auto& entries = bit->second;
  int32_t erased_priority = std::numeric_limits<int32_t>::min();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].rule.id == id) {
      erased_priority = entries[i].rule.priority;
      entries.erase(entries.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (entries.empty()) t.buckets.erase(bit);
  --t.entries;
  by_id_.erase(it);
  if (erased_priority == t.max_priority) {
    recompute_max(t);
    refresh_order();
  }
  return true;
}

template <typename CountProbe>
const Rule* SoftTable::find(const Packet& p, CountProbe count_probe) const {
  const Rule* best = nullptr;
  uint64_t best_seq = 0;
  int32_t best_priority = std::numeric_limits<int32_t>::min();
  for (size_t idx : order_) {
    const Tuple& t = tuples_[idx];
    if (t.entries == 0) continue;
    // Chain early exit: every later tuple has max_priority <= this one's, so
    // nothing downstream can beat an established strictly-higher hit. An
    // equal-priority entry could still win on lower insertion seq, so the
    // cut is on strict inequality only.
    if (best != nullptr && best_priority > t.max_priority) break;
    count_probe();
    MaskKey key{};
    for (size_t f = 0; f < kNumFields; ++f) key[f] = p.fields[f] & t.masks[f];
    auto it = t.buckets.find(key);
    if (it == t.buckets.end()) continue;
    for (const Entry& e : it->second) {
      if (best == nullptr || e.rule.priority > best_priority ||
          (e.rule.priority == best_priority && e.seq < best_seq)) {
        best = &e.rule;
        best_priority = e.rule.priority;
        best_seq = e.seq;
      }
    }
  }
  return best;
}

const Rule* SoftTable::lookup(const Packet& p) const {
  return find(p, [] {});
}

const Rule* SoftTable::lookup_counted(const Packet& p) {
  ++stats_.lookups;
  return find(p, [this] { ++stats_.tuples_probed; });
}

}  // namespace ruletris::tcam
