#include "tcam/tuple_space.h"

#include <algorithm>
#include <stdexcept>

#include "util/hash.h"

namespace ruletris::tcam {

namespace {

constexpr size_t kMinSlots = 2;

PackedKey masked(const PackedKey& key, const PackedKey& mask) {
  return {key[0] & mask[0], key[1] & mask[1]};
}

}  // namespace

TupleSpace::TupleSpace(unsigned tie_bits) : tie_bits_(tie_bits) {
  grow(masks_);  // a slot array is never empty
}

size_t TupleSpace::home(const PackedKey& key, size_t slot_mask) {
  return util::hash_pair(key[0], key[1]) & slot_mask;
}

const TupleSpace::Slot* TupleSpace::find_slot(const SlotArray& a, const PackedKey& key) {
  const size_t mask = a.slots.size() - 1;
  for (size_t i = home(key, mask);; i = (i + 1) & mask) {
    const Slot& s = a.slots[i];
    if (s.handle == kNone) return nullptr;
    if (s.key == key) return &s;
  }
}

TupleSpace::Slot* TupleSpace::find_slot(SlotArray& a, const PackedKey& key) {
  return const_cast<Slot*>(find_slot(static_cast<const SlotArray&>(a), key));
}

void TupleSpace::grow(SlotArray& a) {
  std::vector<Slot> old = std::move(a.slots);
  a.slots.assign(old.empty() ? kMinSlots : old.size() * 2, Slot{});
  const size_t mask = a.slots.size() - 1;
  for (const Slot& s : old) {
    if (s.handle == kNone) continue;
    size_t i = home(s.key, mask);
    while (a.slots[i].handle != kNone) i = (i + 1) & mask;
    a.slots[i] = s;
  }
}

TupleSpace::Slot& TupleSpace::add_slot(SlotArray& a, const PackedKey& key) {
  if ((a.used + 1) * 2 > a.slots.size()) grow(a);
  const size_t mask = a.slots.size() - 1;
  size_t i = home(key, mask);
  while (a.slots[i].handle != kNone) i = (i + 1) & mask;
  a.slots[i].key = key;
  ++a.used;
  return a.slots[i];
}

void TupleSpace::erase_slot(SlotArray& a, Slot* slot) {
  const size_t mask = a.slots.size() - 1;
  size_t hole = static_cast<size_t>(slot - a.slots.data());
  for (size_t j = (hole + 1) & mask; a.slots[j].handle != kNone; j = (j + 1) & mask) {
    // The slot at j may fill the hole iff its home lies at or before the
    // hole along the probe path (cyclic distance check).
    if (((j - home(a.slots[j].key, mask)) & mask) >= ((j - hole) & mask)) {
      a.slots[hole] = a.slots[j];
      hole = j;
    }
  }
  a.slots[hole] = Slot{};
  --a.used;
}

void TupleSpace::set_best(Slot& slot, Handle h) const {
  slot.handle = h;
  slot.rank = links_[h].rank;
}

std::vector<uint32_t>::iterator TupleSpace::chain_pos(uint32_t ti) {
  // Max ranks are unique (ranks are), so the tuple's own key finds it.
  const Rank r = tuples_[ti].max_rank;
  return std::partition_point(order_.begin(), order_.end(),
                              [&](uint32_t x) { return tuples_[x].max_rank > r; });
}

void TupleSpace::rechain(uint32_t ti, Rank max_rank) {
  const auto from = chain_pos(ti);
  tuples_[ti].max_rank = max_rank;
  const auto ahead = [&](uint32_t x) { return tuples_[x].max_rank > max_rank; };
  // A risen tuple moves forward, a fallen one back; the rest keep order.
  const auto to = std::partition_point(order_.begin(), from, ahead);
  if (to != from) {
    std::rotate(to, from, from + 1);
  } else {
    std::rotate(from, from + 1, std::partition_point(from + 1, order_.end(), ahead));
  }
}

uint32_t TupleSpace::add_tuple(const PackedKey& mask, Rank rank) {
  uint32_t ti = static_cast<uint32_t>(tuples_.size());
  if (free_tuples_.empty()) {
    tuples_.emplace_back();
  } else {
    ti = free_tuples_.back();
    free_tuples_.pop_back();
  }
  Tuple& t = tuples_[ti];
  t.mask = mask;
  t.max_rank = rank;
  grow(t.table);
  add_slot(masks_, mask).handle = ti;
  order_.insert(std::partition_point(order_.begin(), order_.end(),
                                     [&](uint32_t x) { return tuples_[x].max_rank > rank; }),
                ti);
  return ti;
}

void TupleSpace::drop_tuple(uint32_t ti) {
  order_.erase(chain_pos(ti));
  Tuple& t = tuples_[ti];
  erase_slot(masks_, find_slot(masks_, t.mask));
  t = Tuple{};  // frees the slot array
  free_tuples_.push_back(ti);
}

void TupleSpace::insert(Handle h, const PackedMatch& m, Rank rank) {
  if (h == kNone) throw std::invalid_argument("TupleSpace::insert: invalid handle");
  if (h >= links_.size()) links_.resize(size_t{h} + 1);
  const Slot* known = find_slot(masks_, m.mask);
  const uint32_t ti = known != nullptr ? known->handle : add_tuple(m.mask, rank);
  links_[h] = Link{rank, kNone, ti};

  Tuple& t = tuples_[ti];
  const PackedKey key = masked(m.value, m.mask);
  if (Slot* slot = find_slot(t.table, key); slot == nullptr) {
    set_best(add_slot(t.table, key), h);
  } else if (rank > slot->rank) {
    // Same match as an existing bucket: chain best-first.
    links_[h].next = slot->handle;
    set_best(*slot, h);
  } else {
    Handle at = slot->handle;
    while (links_[at].next != kNone && links_[links_[at].next].rank > rank) {
      at = links_[at].next;
    }
    links_[h].next = links_[at].next;
    links_[at].next = h;
  }
  ++t.entries;
  if (rank > t.max_rank) rechain(ti, rank);
}

void TupleSpace::erase(Handle h, const PackedMatch& m) {
  Link& link = links_[h];
  const uint32_t ti = link.tuple;
  Tuple& t = tuples_[ti];
  Slot* slot = find_slot(t.table, masked(m.value, m.mask));
  if (slot->handle == h) {
    if (link.next != kNone) {
      set_best(*slot, link.next);
    } else {
      erase_slot(t.table, slot);
    }
  } else {
    Handle at = slot->handle;
    while (links_[at].next != h) at = links_[at].next;
    links_[at].next = link.next;
  }
  const Rank rank = link.rank;
  link = Link{};
  if (--t.entries == 0) {
    drop_tuple(ti);
  } else if (rank == t.max_rank) {
    // A slot carries its bucket's best, so the slots alone hold the maximum.
    Rank max_rank = 0;
    for (const Slot& s : t.table.slots) {
      if (s.handle != kNone) max_rank = std::max(max_rank, s.rank);
    }
    rechain(ti, max_rank);
  }
}

template <typename CountProbe>
TupleSpace::Handle TupleSpace::find(const PackedKey& key, CountProbe count_probe) const {
  Handle best = kNone;
  Rank best_rank = 0;
  for (uint32_t ti : order_) {
    const Tuple& t = tuples_[ti];
    // Chain early exit: every later tuple's max rank is at most this one's,
    // so nothing downstream can beat an established higher hit.
    if (best != kNone && (best_rank >> tie_bits_) > (t.max_rank >> tie_bits_)) break;
    count_probe();
    const Slot* s = find_slot(t.table, masked(key, t.mask));
    // The slot carries its bucket's best, so the duplicates behind it
    // cannot win.
    if (s != nullptr && (best == kNone || s->rank > best_rank)) {
      best = s->handle;
      best_rank = s->rank;
    }
  }
  return best;
}

TupleSpace::Handle TupleSpace::find(const PackedKey& key) const {
  return find(key, [] {});
}

TupleSpace::Handle TupleSpace::find_counted(const PackedKey& key) {
  ++stats_.lookups;
  return find(key, [this] { ++stats_.tuples_probed; });
}

}  // namespace ruletris::tcam
