// Flat open-addressing map from rule id to a small value.
//
// The data plane keeps three id-keyed indexes next to hot paths: CacheFlow's
// id -> rule_order() position (every hit credit and plan step resolves one),
// SoftTable's id -> entry (every insert and erase) and Tcam's id -> address
// (every write, move and erase). std::unordered_map
// pays a heap node and a pointer chase per element; this is the dag::IdSet
// idiom with a value beside each id: one power-of-two slot array, fibonacci
// hashing, linear probing, backward-shift deletion.
//
// kInvalidRuleId marks empty slots, so it can never be a key: insert()
// rejects it and find() reports it absent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "flowspace/rule.h"

namespace ruletris::tcam {

template <typename V>
class RuleIdMap {
  using Id = flowspace::RuleId;
  static constexpr Id kEmpty = flowspace::kInvalidRuleId;
  static constexpr uint64_t kMix = 0x9E3779B97F4A7C15ull;  // 2^64 / phi

 public:
  size_t size() const { return size_; }

  /// The value stored for `id`, or nullptr when absent.
  const V* find(Id id) const {
    if (size_ == 0 || id == kEmpty) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(id);; i = (i + 1) & mask) {
      if (slots_[i].id == id) return &slots_[i].value;
      if (slots_[i].id == kEmpty) return nullptr;
    }
  }
  V* find(Id id) { return const_cast<V*>(static_cast<const RuleIdMap&>(*this).find(id)); }

  /// Adds (id, value); false, with the map unchanged, when `id` is present.
  bool insert(Id id, V value) {
    if (id == kEmpty) throw std::invalid_argument("RuleIdMap: invalid rule id");
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      grow(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(id);; i = (i + 1) & mask) {
      if (slots_[i].id == id) return false;
      if (slots_[i].id == kEmpty) {
        slots_[i] = Slot{id, value};
        ++size_;
        return true;
      }
    }
  }

  /// Removes `id`; false when absent. Backward-shift deletion keeps probe
  /// chains tombstone-free.
  bool erase(Id id) {
    if (size_ == 0 || id == kEmpty) return false;
    const size_t mask = slots_.size() - 1;
    size_t i = home(id);
    while (slots_[i].id != id) {
      if (slots_[i].id == kEmpty) return false;
      i = (i + 1) & mask;
    }
    size_t hole = i;
    for (size_t j = (hole + 1) & mask; slots_[j].id != kEmpty; j = (j + 1) & mask) {
      // The element at j may fill the hole iff its home lies at or before
      // the hole along the probe path (cyclic distance check).
      if (((j - home(slots_[j].id)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Pre-sizes the table so `n` ids fit without rehashing.
  void reserve(size_t n) {
    size_t want = kMinSlots;
    while (n * 4 > want * 3) want *= 2;
    if (want > slots_.size()) grow(want);
  }

 private:
  static constexpr size_t kMinSlots = 8;

  struct Slot {
    Id id = kEmpty;
    V value{};
  };

  size_t home(Id id) const { return (id * kMix) >> shift_; }

  void grow(size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    shift_ = 64;
    for (size_t s = new_slots; s > 1; s >>= 1) --shift_;
    const size_t mask = new_slots - 1;
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      size_t i = home(s.id);
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace ruletris::tcam
