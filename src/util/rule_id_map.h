// Flat open-addressing map from rule id to a value: the repository's one
// id-keyed hash map.
//
// Per-rule state sits next to every hot path: the TCAM's id -> address,
// SoftTable's id -> pool index, CacheFlow's id -> rule_order() position,
// DependencyGraph's id -> vertex handle (and a hub adjacency list's id ->
// position), the compiler's per-rule actions, member entries and provenance
// lists, the min-DAG maintainer's match and rank, the overlap index's bucket
// slots and the scheduler's dependency caps. std::unordered_map pays a heap
// node and a pointer chase per element; this map is one power-of-two slot
// array (an id and a value per slot), fibonacci hashing, linear probing,
// backward-shift deletion. Values are moved, never copied, so they may own
// memory (a std::vector of ids, say).
//
// The load factor stays at or below 3/4, so a map of n entries holds
// between 4n/3 and 8n/3 slots: a uint32_t value makes a 16-byte slot, 42
// bytes per entry at 100 k entries (262,144 slots), the largest part of the
// dependency graph's ~96 bytes per vertex.
//
// Every insert or erase may move other values: pointers and references
// returned by find(), at() or operator[] stay valid only until the next
// insert, operator[] on an absent id, erase or clear. for_each() visits in
// slot order, which follows the ids' hashes, not their insertion order: use
// it only where the visit order reaches no output.
//
// Id 0 (flowspace::kInvalidRuleId) marks empty slots, so it can never be a
// key: insert() and operator[] reject it, and find() reports it absent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ruletris::util {

template <typename V>
class RuleIdMap {
  using Id = uint64_t;
  static constexpr Id kEmpty = 0;
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

  bool contains(Id id) const { return find(id) != nullptr; }

  /// The value stored for `id`; throws std::out_of_range when absent.
  const V& at(Id id) const {
    const V* v = find(id);
    if (v == nullptr) throw std::out_of_range("RuleIdMap: unknown rule id");
    return *v;
  }
  V& at(Id id) { return const_cast<V&>(static_cast<const RuleIdMap&>(*this).at(id)); }

  /// Adds (id, value); false, with the map unchanged, when `id` is present.
  bool insert(Id id, V value) {
    auto [slot, inserted] = find_or_claim(id);
    if (inserted) *slot = std::move(value);
    return inserted;
  }

  /// The value stored for `id`, default-constructed first when absent.
  V& operator[](Id id) { return *find_or_claim(id).first; }

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
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};  // also frees what a moved-from value still owns
    --size_;
    return true;
  }

  /// Removes every entry; keeps the slot array for reuse.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Pre-sizes the table so `n` ids fit without rehashing.
  void reserve(size_t n) {
    size_t want = kMinSlots;
    while (n * 4 > want * 3) want *= 2;
    if (want > slots_.size()) grow(want);
  }

  /// Calls `fn(id, value)` once for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.id != kEmpty) fn(s.id, s.value);
    }
  }

 private:
  static constexpr size_t kMinSlots = 8;

  struct Slot {
    Id id = kEmpty;
    V value{};
  };

  size_t home(Id id) const { return (id * kMix) >> shift_; }

  /// The value stored for `id`, claiming an empty slot (value default)
  /// when absent; second is true when claimed.
  std::pair<V*, bool> find_or_claim(Id id) {
    if (id == kEmpty) throw std::invalid_argument("RuleIdMap: invalid rule id");
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      if (V* v = find(id)) return {v, false};  // no growth for a present id
      grow(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(id);; i = (i + 1) & mask) {
      if (slots_[i].id == id) return {&slots_[i].value, false};
      if (slots_[i].id == kEmpty) {
        slots_[i].id = id;
        ++size_;
        return {&slots_[i].value, true};
      }
    }
  }

  void grow(size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_slots);
    shift_ = 64;
    for (size_t s = new_slots; s > 1; s >>= 1) --shift_;
    const size_t mask = new_slots - 1;
    for (Slot& s : old) {
      if (s.id == kEmpty) continue;
      size_t i = home(s.id);
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace ruletris::util
