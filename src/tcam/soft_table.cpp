#include "tcam/soft_table.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/hash.h"

namespace ruletris::tcam {

using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

namespace {

constexpr size_t kMinSlots = 8;

PackedKey masked(const PackedKey& key, const PackedKey& mask) {
  return {key[0] & mask[0], key[1] & mask[1]};
}

/// True iff (priority, seq) beats (best_priority, best_seq): higher
/// priority, then earlier insert.
bool beats(int32_t priority, uint64_t seq, int32_t best_priority, uint64_t best_seq) {
  return priority > best_priority || (priority == best_priority && seq < best_seq);
}

}  // namespace

size_t SoftTable::KeyHash::operator()(const PackedKey& k) const {
  return util::hash_pair(k[0], k[1]);
}

size_t SoftTable::home(const PackedKey& key, size_t slot_mask) {
  return KeyHash{}(key) & slot_mask;
}

const SoftTable::Slot* SoftTable::find_slot(const Tuple& t, const PackedKey& key) {
  const size_t mask = t.slots.size() - 1;
  for (size_t i = home(key, mask);; i = (i + 1) & mask) {
    const Slot& s = t.slots[i];
    if (s.entry == kNone) return nullptr;
    if (s.key == key) return &s;
  }
}

SoftTable::Slot* SoftTable::find_slot(Tuple& t, const PackedKey& key) {
  return const_cast<Slot*>(find_slot(static_cast<const Tuple&>(t), key));
}

void SoftTable::grow(Tuple& t) {
  std::vector<Slot> old = std::move(t.slots);
  t.slots.assign(old.empty() ? kMinSlots : old.size() * 2, Slot{});
  const size_t mask = t.slots.size() - 1;
  for (const Slot& s : old) {
    if (s.entry == kNone) continue;
    size_t i = home(s.key, mask);
    while (t.slots[i].entry != kNone) i = (i + 1) & mask;
    t.slots[i] = s;
  }
}

void SoftTable::erase_slot(Tuple& t, Slot* slot) {
  const size_t mask = t.slots.size() - 1;
  size_t hole = static_cast<size_t>(slot - t.slots.data());
  for (size_t j = (hole + 1) & mask; t.slots[j].entry != kNone; j = (j + 1) & mask) {
    // The slot at j may fill the hole iff its home lies at or before the
    // hole along the probe path (cyclic distance check).
    if (((j - home(t.slots[j].key, mask)) & mask) >= ((j - hole) & mask)) {
      t.slots[hole] = t.slots[j];
      hole = j;
    }
  }
  t.slots[hole] = Slot{};
  --t.used;
}

void SoftTable::set_best(Slot& slot, uint32_t idx) const {
  slot.entry = idx;
  slot.priority = pool_[idx].rule.priority;
  slot.seq = pool_[idx].seq;
}

SoftTable::SoftTable(const std::vector<Rule>& rules) {
  by_id_.reserve(rules.size());
  pool_.reserve(rules.size());
  for (const Rule& r : rules) insert(r);
}

void SoftTable::refresh_order() {
  order_.resize(tuples_.size());
  for (uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    if (tuples_[a].max_priority != tuples_[b].max_priority) {
      return tuples_[a].max_priority > tuples_[b].max_priority;
    }
    return a < b;  // stable, deterministic chain
  });
}

void SoftTable::recompute_max(Tuple& t) {
  // A slot carries its bucket's best, so the slots alone hold the maximum.
  t.max_priority = std::numeric_limits<int32_t>::min();
  for (const Slot& s : t.slots) {
    if (s.entry != kNone) t.max_priority = std::max(t.max_priority, s.priority);
  }
}

uint32_t SoftTable::alloc_entry(const Rule& rule, uint32_t tuple) {
  Entry e{rule, next_seq_++, tuple, kNone};
  if (!free_.empty()) {
    const uint32_t idx = free_.back();
    free_.pop_back();
    pool_[idx] = std::move(e);
    return idx;
  }
  if (pool_.size() >= kNone) throw std::length_error("SoftTable: too many rules");
  pool_.push_back(std::move(e));
  return static_cast<uint32_t>(pool_.size() - 1);
}

void SoftTable::insert(const Rule& rule) {
  if (rule.id == flowspace::kInvalidRuleId) {
    throw std::invalid_argument("SoftTable::insert: invalid rule id");
  }
  if (contains(rule.id)) {
    throw std::invalid_argument("SoftTable::insert: duplicate rule id");
  }
  const PackedMatch m = pack_match(rule.match);
  auto [it, created] =
      tuple_index_.try_emplace(m.mask, static_cast<uint32_t>(tuples_.size()));
  if (created) {
    tuples_.emplace_back();
    tuples_.back().mask = m.mask;
    tuples_.back().max_priority = std::numeric_limits<int32_t>::min();
    grow(tuples_.back());  // a tuple's slot array is never empty
  }
  const uint32_t ti = it->second;
  const uint32_t idx = alloc_entry(rule, ti);
  by_id_.insert(rule.id, idx);

  Tuple& t = tuples_[ti];
  const PackedKey key = masked(m.value, m.mask);
  if (Slot* slot = find_slot(t, key); slot != nullptr) {
    // Same match as an existing bucket. The new entry has the highest seq,
    // so it goes after every entry of equal or higher priority.
    if (rule.priority > slot->priority) {
      pool_[idx].next = slot->entry;
      set_best(*slot, idx);
    } else {
      uint32_t at = slot->entry;
      while (pool_[at].next != kNone && pool_[pool_[at].next].rule.priority >= rule.priority) {
        at = pool_[at].next;
      }
      pool_[idx].next = pool_[at].next;
      pool_[at].next = idx;
    }
  } else {
    if ((t.used + 1) * 2 > t.slots.size()) grow(t);
    const size_t mask = t.slots.size() - 1;
    size_t i = home(key, mask);
    while (t.slots[i].entry != kNone) i = (i + 1) & mask;
    t.slots[i].key = key;
    set_best(t.slots[i], idx);
    ++t.used;
  }
  ++t.entries;
  const bool order_stale = created || rule.priority > t.max_priority;
  t.max_priority = std::max(t.max_priority, rule.priority);
  if (order_stale) refresh_order();
}

bool SoftTable::erase(RuleId id) {
  const uint32_t* found = by_id_.find(id);
  if (found == nullptr) return false;
  const uint32_t idx = *found;
  by_id_.erase(id);
  Entry& e = pool_[idx];
  Tuple& t = tuples_[e.tuple];
  const PackedMatch m = pack_match(e.rule.match);
  Slot* slot = find_slot(t, masked(m.value, m.mask));
  if (slot->entry == idx) {
    if (e.next != kNone) {
      set_best(*slot, e.next);
    } else {
      erase_slot(t, slot);
    }
  } else {
    uint32_t at = slot->entry;
    while (pool_[at].next != idx) at = pool_[at].next;
    pool_[at].next = e.next;
  }
  const int32_t erased_priority = e.rule.priority;
  e = Entry{};  // drop the rule copy's heap state now
  free_.push_back(idx);
  --t.entries;
  if (erased_priority == t.max_priority) {
    recompute_max(t);
    refresh_order();
  }
  return true;
}

template <typename CountProbe>
const Rule* SoftTable::find(const Packet& p, CountProbe count_probe) const {
  const PackedKey key = pack_fields(p.fields);
  uint32_t best = kNone;
  uint64_t best_seq = 0;
  int32_t best_priority = std::numeric_limits<int32_t>::min();
  for (uint32_t ti : order_) {
    const Tuple& t = tuples_[ti];
    if (t.entries == 0) continue;
    // Chain early exit: every later tuple has max_priority <= this one's, so
    // nothing downstream can beat an established strictly-higher hit. An
    // equal-priority entry could still win on lower insertion seq, so the
    // cut is on strict inequality only.
    if (best != kNone && best_priority > t.max_priority) break;
    count_probe();
    const Slot* s = find_slot(t, masked(key, t.mask));
    if (s == nullptr) continue;
    // The slot carries its bucket's best, so the duplicates behind it
    // cannot win.
    if (best == kNone || beats(s->priority, s->seq, best_priority, best_seq)) {
      best = s->entry;
      best_priority = s->priority;
      best_seq = s->seq;
    }
  }
  return best == kNone ? nullptr : &pool_[best].rule;
}

const Rule* SoftTable::lookup(const Packet& p) const {
  return find(p, [] {});
}

const Rule* SoftTable::lookup_counted(const Packet& p) {
  ++stats_.lookups;
  return find(p, [this] { ++stats_.tuples_probed; });
}

}  // namespace ruletris::tcam
