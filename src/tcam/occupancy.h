// Fenwick-tree occupancy index over TCAM addresses.
//
// Both firmwares repeatedly ask "nearest free slot above/below X" and
// "k-th occupied slot"; a binary-indexed tree answers these in O(log n)
// without scanning the slot array, which matters when emulating multi-
// thousand-entry TCAMs under thousands of updates. The one instance per
// device lives in tcam::Tcam, which keeps it exact on every write, move
// and erase.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace ruletris::tcam {

class OccupancyIndex {
 public:
  explicit OccupancyIndex(size_t capacity)
      : capacity_(capacity), tree_(capacity + 1, 0), occupied_(capacity, false) {
    if (capacity == 0) throw std::invalid_argument("OccupancyIndex: zero capacity");
    compute_highest_bit();
  }

  size_t capacity() const { return capacity_; }
  size_t occupied_count() const { return prefix(capacity_); }

  void set_occupied(size_t addr, bool value) {
    if (addr >= capacity_) throw std::out_of_range("OccupancyIndex: bad address");
    if (occupied_[addr] == value) return;
    occupied_[addr] = value;
    add(addr, value ? +1 : -1);
  }

  /// Number of occupied slots in [0, addr) — i.e. strictly below `addr`.
  size_t occupied_below(size_t addr) const { return prefix(addr); }

  /// Number of occupied slots in [lo, hi] inclusive.
  size_t occupied_in(size_t lo, size_t hi) const {
    if (lo > hi) return 0;
    return prefix(hi + 1) - prefix(lo);
  }

  /// Address of the k-th occupied slot (0-based, ascending); nullopt if
  /// fewer than k+1 slots are occupied.
  std::optional<size_t> kth_occupied(size_t k) const {
    if (k >= occupied_count()) return std::nullopt;
    // Standard Fenwick descent.
    size_t pos = 0;
    size_t remaining = k + 1;
    size_t mask = highest_bit_;
    while (mask != 0) {
      const size_t next = pos + mask;
      if (next <= capacity_ && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
      mask >>= 1;
    }
    return pos;  // pos is the 0-based address (tree is 1-indexed internally)
  }

  /// Smallest free address >= `from`; nullopt when everything above is full.
  std::optional<size_t> nearest_free_at_or_above(size_t from) const {
    if (from >= capacity_) return std::nullopt;
    // Free slots below `from`: from - occupied_below(from). We want the
    // first address a >= from with (a+1 - prefix(a+1)) > free_below_from.
    const size_t free_before = from - prefix(from);
    const size_t total_free = capacity_ - occupied_count();
    if (free_before >= total_free) return std::nullopt;
    return kth_free(free_before);
  }

  /// Largest free address <= `from`; nullopt when everything below is full.
  std::optional<size_t> nearest_free_at_or_below(size_t from) const {
    if (from >= capacity_) from = capacity_ - 1;
    const size_t free_through = (from + 1) - prefix(from + 1);
    if (free_through == 0) return std::nullopt;
    return kth_free(free_through - 1);
  }

 private:
  /// Address of the k-th free slot (0-based ascending). Fenwick descent:
  /// a node at pos+mask covers the address range (pos, pos+mask], which
  /// holds mask - tree_[pos+mask] free slots, so the search walks down the
  /// implicit tree in O(log n) instead of binary-searching over O(log n)
  /// prefix sums.
  std::optional<size_t> kth_free(size_t k) const {
    const size_t total_free = capacity_ - occupied_count();
    if (k >= total_free) return std::nullopt;
    size_t pos = 0;
    size_t remaining = k + 1;
    size_t mask = highest_bit_;
    while (mask != 0) {
      const size_t next = pos + mask;
      if (next <= capacity_) {
        const size_t free_in_subtree = mask - tree_[next];
        if (free_in_subtree < remaining) {
          pos = next;
          remaining -= free_in_subtree;
        }
      }
      mask >>= 1;
    }
    return pos;  // pos is the 0-based address (tree is 1-indexed internally)
  }

  size_t prefix(size_t n) const {  // occupied in [0, n)
    size_t sum = 0;
    for (size_t i = n; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

  void add(size_t addr, int delta) {
    for (size_t i = addr + 1; i <= capacity_; i += i & (~i + 1)) {
      tree_[i] = static_cast<size_t>(static_cast<long long>(tree_[i]) + delta);
    }
  }

  void compute_highest_bit() {
    highest_bit_ = 1;
    while ((highest_bit_ << 1) <= capacity_) highest_bit_ <<= 1;
  }

  size_t capacity_;
  std::vector<size_t> tree_;
  std::vector<bool> occupied_;
  size_t highest_bit_ = 0;
};

}  // namespace ruletris::tcam
