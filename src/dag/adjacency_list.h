// One vertex's successor or predecessor list in a DependencyGraph: an
// insertion-ordered, duplicate-free sequence of rule ids, read as one
// contiguous span.
//
// Dependency DAGs are sparse. The 100 k-rule FIB DAG has one edge per
// vertex: every predecessor list holds one id and two thirds of the
// successor lists none. So the list is 16 bytes: up to kInline ids live in
// the object itself, and a longer list moves into one heap block (sized
// exactly by reserve(), grown geometrically by insert()) and moves back
// inline once it fits again. Membership scans the span. A list that
// reaches kHubDegree ids (the default route's successors, a match-all
// rule's predecessors) also keeps a position index in its block, so
// contains(), insert() and erase() stay O(1) on hubs; the index is dropped
// when the list shrinks to half that.
//
// The order is part of the contract: insert() appends, and erase() moves
// the last id into the hole (swap-remove). The order is therefore a
// function of the operation sequence alone, never of the id values.
//
// Ids 0 (flowspace::kInvalidRuleId) and ~0 are reserved: they mark an empty
// inline slot and a heap block. insert() rejects both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

#include "flowspace/rule.h"
#include "util/rule_id_map.h"

namespace ruletris::dag {

class AdjacencyList {
  using Id = flowspace::RuleId;

 public:
  /// Ids held in the object itself; a longer list takes a heap block.
  static constexpr size_t kInline = 2;
  /// Length at which a list starts keeping a position index.
  static constexpr size_t kHubDegree = 64;

  AdjacencyList() = default;
  AdjacencyList(const AdjacencyList& other) {
    reserve(other.size());
    for (Id id : other) append(id);
  }
  AdjacencyList(AdjacencyList&& other) noexcept : words_{other.words_[0], other.words_[1]} {
    other.words_[0] = other.words_[1] = 0;
  }
  AdjacencyList& operator=(const AdjacencyList& other) {
    if (this != &other) *this = AdjacencyList(other);
    return *this;
  }
  AdjacencyList& operator=(AdjacencyList&& other) noexcept {
    if (this != &other) {
      release();
      words_[0] = std::exchange(other.words_[0], 0);
      words_[1] = std::exchange(other.words_[1], 0);
    }
    return *this;
  }
  ~AdjacencyList() { release(); }

  size_t size() const {
    if (const Block* b = block()) return b->size;
    return (words_[0] != 0) + (words_[1] != 0);
  }
  bool empty() const { return size() == 0; }

  /// The ids in list order; valid until the next change to this list.
  std::span<const Id> ids() const {
    if (const Block* b = block()) return {b->ids(), b->size};
    return {words_, size()};
  }
  const Id* begin() const { return ids().data(); }
  const Id* end() const {
    const auto s = ids();
    return s.data() + s.size();
  }

  bool contains(Id id) const { return position(id) != kAbsent; }

  /// True for the ids no list may hold (see the header comment).
  static bool reserved(Id id) { return id == 0 || id == kHeapTag; }

  /// Appends `id`; false, with the list unchanged, when it is present.
  bool insert(Id id) {
    if (reserved(id)) throw std::invalid_argument("AdjacencyList: reserved id");
    if (contains(id)) return false;
    append(id);
    return true;
  }

  /// Removes `id` by moving the last id into its place; false when absent.
  bool erase(Id id) {
    const size_t pos = position(id);
    if (pos == kAbsent) return false;
    Block* b = block();
    if (b == nullptr) {
      if (pos == 0) words_[0] = words_[1];
      words_[1] = 0;
      return true;
    }
    Id* ids = b->ids();
    const uint32_t last = --b->size;
    if (b->index != nullptr) {
      b->index->erase(id);
      if (pos != last) (*b->index)[ids[last]] = static_cast<uint32_t>(pos);
    }
    ids[pos] = ids[last];
    if (b->size <= kInline) {
      const Id first = ids[0];
      const Id second = b->size == kInline ? ids[1] : 0;
      release();
      words_[0] = first;
      words_[1] = second;
    } else if (b->index != nullptr && b->size <= kHubDegree / 2) {
      delete b->index;
      b->index = nullptr;
    }
    return true;
  }

  void clear() {
    release();
    words_[0] = words_[1] = 0;
  }

  /// Sizes the storage so `n` ids fit without regrowth: exactly `n` when a
  /// heap block is needed.
  void reserve(size_t n) {
    if (n <= kInline || n <= capacity()) return;
    if (n > UINT32_MAX) throw std::length_error("AdjacencyList: too many ids");
    Block* fresh = Block::make(static_cast<uint32_t>(n));
    const auto old = ids();
    for (size_t i = 0; i < old.size(); ++i) fresh->ids()[i] = old[i];
    fresh->size = static_cast<uint32_t>(old.size());
    if (Block* b = block()) std::swap(fresh->index, b->index);
    release();
    words_[0] = reinterpret_cast<uintptr_t>(fresh);
    words_[1] = kHeapTag;
  }

  /// Same ids, in any order.
  bool operator==(const AdjacencyList& other) const {
    if (size() != other.size()) return false;
    for (Id id : *this) {
      if (!other.contains(id)) return false;
    }
    return true;
  }

 private:
  friend class DependencyGraph;  // bulk loads append ids they checked themselves

  static constexpr Id kHeapTag = ~Id{0};
  static constexpr size_t kAbsent = ~size_t{0};

  /// A heap list: this header, then `cap` id slots.
  struct Block {
    uint32_t size = 0;
    uint32_t cap = 0;
    util::RuleIdMap<uint32_t>* index = nullptr;  // id -> position; hubs only

    Id* ids() { return reinterpret_cast<Id*>(this + 1); }
    const Id* ids() const { return reinterpret_cast<const Id*>(this + 1); }

    static Block* make(uint32_t cap) {
      void* raw = ::operator new(sizeof(Block) + size_t{cap} * sizeof(Id));
      Block* b = new (raw) Block;
      b->cap = cap;
      return b;
    }
  };
  static_assert(sizeof(Block) % alignof(Id) == 0);

  Block* block() const {
    return words_[1] == kHeapTag ? reinterpret_cast<Block*>(words_[0]) : nullptr;
  }
  size_t capacity() const {
    const Block* b = block();
    return b == nullptr ? kInline : b->cap;
  }

  size_t position(Id id) const {
    if (const Block* b = block(); b != nullptr && b->index != nullptr) {
      const uint32_t* pos = b->index->find(id);
      return pos == nullptr ? kAbsent : *pos;
    }
    const auto s = ids();
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == id) return i;
    }
    return kAbsent;
  }

  /// Appends an id known to be absent and not reserved.
  void append(Id id) {
    if (block() == nullptr) {
      for (Id& slot : words_) {
        if (slot == 0) {
          slot = id;
          return;
        }
      }
    }
    const size_t n = size();
    if (n == capacity()) reserve(n * 2);
    Block* b = block();
    b->ids()[b->size++] = id;
    if (b->index != nullptr) {
      b->index->insert(id, b->size - 1);
    } else if (b->size >= kHubDegree) {
      b->index = new util::RuleIdMap<uint32_t>();
      b->index->reserve(b->cap);
      for (uint32_t i = 0; i < b->size; ++i) b->index->insert(b->ids()[i], i);
    }
  }

  void release() {
    if (Block* b = block()) {
      delete b->index;
      b->~Block();
      ::operator delete(b);
    }
  }

  // Inline: up to kInline ids, filled from the front, 0 when empty. Heap:
  // words_[0] holds the Block pointer and words_[1] is kHeapTag.
  Id words_[kInline] = {0, 0};
};

static_assert(sizeof(AdjacencyList) == 16);

}  // namespace ruletris::dag
