// Tuple-space index: the one mask-tuple classifier core behind both the
// software slow path (tcam/soft_table) and the TCAM model's lookup
// (tcam/tcam).
//
// Entries are partitioned by their mask *tuple* (the packed 128-bit mask of
// tcam/packed_key.h), and within a tuple every entry is an exact match on
// the masked header bits, so one hash probe per tuple finds all candidates.
// The index stores no rules: an entry is a caller-chosen handle (a pool
// index, a TCAM address) with a rank, and the highest rank among matching
// entries wins. Ranks must be unique among live handles.
//
// Tuples are grouped into TupleChain-style chains (PAPERS.md): the masks of
// a chain are strictly nested, shortest first, and a chain is searched by
// binary search over its levels with markers (Waldvogel et al., "Scalable
// High Speed IP Routing Lookups", SIGCOMM 1997). A level's slot either
// carries entries with that match or marks that a longer level in the
// level's right subtree holds an entry extending the key; a probe that
// finds a slot goes to the longer half, a miss to the shorter. Every slot
// also stores the best-ranked entry among those at its own level or a
// shorter one whose match covers the slot's key, so the last slot the
// search finds is the chain's exact answer, and a slot that marks nothing
// ends the search. The search tree is weighted by entries per level. A
// chain of one mask is one probe.
//
// Masks are assigned to chains greedily by popcount: a new mask joins the
// first chain (in probe order) it nests into, or starts a chain of its
// own. Until the index has been searched, every mask is a chain of its
// own: a flat tuple list, cheaper to write, which is what a TCAM that is
// only written (fleet and compile-side TCAMs) keeps. The first insert
// after the first search regroups the index into nested chains; the bulk
// build (assign) chains at once. A chain is refilled over a fresh weighted
// tree whenever a level joins it or leaves it with its last entry, and
// only then (rare once an index is warm: on traffic_cacheflow's TCAMs,
// about one write in a hundred adds a level). Chains are probed sorted by
// their best rank, with early exit once the best hit so far outranks every
// remaining chain. Every mutation keeps the index exact, so lookup is
// strictly const and concurrent readers need no synchronization.
//
// A batch of independent keys can be looked up together (find_batch): the
// keys descend each chain level by level, and each level's home slots are
// prefetched for every key before any is probed, so on an index larger
// than the cache the misses of up to 16 keys overlap. Each key keeps its
// own early exit and result; find() is the oracle it is tested against.
//
// Storage is built for the probe. A level is its packed mask over one
// power-of-two open-addressing slot array (linear probing, backward-shift
// delete, grown at half load). A 32-byte slot holds the masked key words,
// the best covering entry, the slot's marker count and the head of its own
// entries, so one probe is two ANDs, one hash and a two-word compare,
// usually within one cache line; a lookup reads a rank (from the per-handle
// link array) only to compare hits across chains. Same-match duplicates
// are chained best-first behind the own head through the link array. Writes
// find a mask's level through one more slot array of the same kind, keyed
// by mask.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "tcam/packed_key.h"

namespace ruletris::tcam {

class TupleSpace {
 public:
  using Handle = uint32_t;
  using Rank = uint64_t;  // higher wins
  static constexpr Handle kNone = ~Handle{0};

  /// The chain's early exit compares ranks with their low `tie_bits` bits
  /// shifted out: a chain is skipped only once the best hit strictly
  /// outranks the chain's best at that coarser grain. 0 cuts on full
  /// ranks; SoftTable keeps its insertion-order tie-break in the low 32
  /// bits and cuts on priority alone, as priority chaining does.
  explicit TupleSpace(unsigned tie_bits = 0);

  /// Live tuples (distinct masks with an entry) — the per-lookup probe
  /// bound: a search path through a chain probes at most its live levels.
  size_t tuple_count() const { return live_tuples_; }
  /// Chains of nested masks.
  size_t chain_count() const { return order_.size(); }
  /// Slots that carry no entry of their own, only a marker role.
  size_t marker_slots() const { return marker_slots_; }
  /// Deepest search tree over all chains: probes per chain are at most this.
  unsigned max_depth() const;

  struct Entry {
    Handle handle = kNone;
    PackedMatch match;
    Rank rank = 0;
  };
  /// Fills an empty index with `entries` in one pass: chains (a bulk-built
  /// index is built to be searched) and weighted search trees come from the
  /// final mask population, and each chain is filled shortest level first,
  /// so no entry pays best-propagation.
  /// Handles must be distinct and not kNone; ranks unique.
  void assign(const std::vector<Entry>& entries);

  /// Adds `h`, which must not be live, with match `m` and rank `rank`.
  void insert(Handle h, const PackedMatch& m, Rank rank);
  /// Removes the live `h`, which was inserted with match `m`.
  void erase(Handle h, const PackedMatch& m);
  /// Sizes the per-handle links for handles below `n` in one allocation.
  void reserve_handles(size_t n) { links_.reserve(n); }
  /// Rank `h` was inserted with; `h` must be live.
  Rank rank(Handle h) const { return links_[h].rank; }

  /// Best-ranked live handle whose match covers `key`, or kNone.
  Handle find(const PackedKey& key) const;

  /// Keys find_batch descends together: its stack scratch is this deep.
  static constexpr size_t kBatch = 16;
  /// find() of every key at once: `out[j] = find(keys[j])`, with `out` as
  /// long as `keys`. Groups of kBatch keys descend each chain level by
  /// level, and every live key's home slot at its next level is prefetched
  /// before any of them is probed, so the cache misses of independent keys
  /// overlap instead of queueing. The per-key chain early exit and result
  /// are find()'s; like find() it is const, needs only stack scratch and
  /// marks the index searched.
  void find_batch(std::span<const PackedKey> keys, std::span<Handle> out) const;

  struct Stats {
    uint64_t lookups = 0;
    uint64_t tuples_probed = 0;  // hash probes actually issued
    uint64_t chain_rebuilds = 0;      // weighted search-tree rebuilds
    uint64_t propagation_visits = 0;  // slots best-propagation examined on writes
    double probes_per_lookup() const {
      return lookups == 0 ? 0.0 : static_cast<double>(tuples_probed) /
                                      static_cast<double>(lookups);
    }
  };
  /// Probe accounting from `find_counted`, and the write-side counters.
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// find() that also updates stats(); single-threaded callers only.
  Handle find_counted(const PackedKey& key);
  /// find_batch() that also updates stats(), counting the probes find()
  /// would issue; single-threaded callers only.
  void find_batch_counted(std::span<const PackedKey> keys, std::span<Handle> out);

  /// One chain as it stands: its level masks, shortest first, and its
  /// search tree depth.
  struct ChainView {
    std::vector<PackedKey> masks;
    unsigned depth = 0;
  };
  /// The chains in probe order.
  std::vector<ChainView> chains() const;

 private:
  static constexpr uint32_t kNoTuple = ~uint32_t{0};
  static constexpr uint32_t kFree = ~uint32_t{0};  // Slot::markers of a free slot
  static constexpr size_t kNoSlot = ~size_t{0};

  /// One key of an open-addressing table: in a level, a masked key, the
  /// best entry covering it and its own entries; in the mask index, a mask
  /// and its level. 32 bytes.
  struct Slot {
    PackedKey key{};
    Handle best = kNone;       // best covering entry (kNone: none); or a level index
    uint32_t markers = kFree;  // longer entries this slot marks for; kFree == free slot
    Handle own = kNone;        // best entry with exactly this key, or kNone
  };

  /// Power-of-two slot array, linear probing, at most half full.
  struct SlotArray {
    std::vector<Slot> slots;
    size_t used = 0;
  };

  struct Link {
    Rank rank = 0;
    Handle next = kNone;  // next-best entry with the same match
    uint32_t tuple = 0;   // owning level
  };

  /// A chain, as its shortest level (its head) holds it. The levels are a
  /// list from the head through Tuple::longer, so a chain of one level is
  /// that level and nothing more: a flat index is a plain tuple list.
  struct Chain {
    uint32_t root = kNoTuple;  // search tree
    Rank max_rank = 0;
    size_t entries = 0;
  };

  /// One level of a chain. The lookup reads mask, left, right and table,
  /// and a head's chain.
  struct Tuple {
    PackedKey mask{};
    uint32_t left = kNoTuple;   // search tree: shorter levels
    uint32_t right = kNoTuple;  // longer levels
    unsigned bits = 0;          // popcount of mask, the tree's order key
    SlotArray table;
    uint32_t head = 0;           // the chain's shortest level
    uint32_t longer = kNoTuple;  // next level of the chain by popcount
    size_t entries = 0;          // own entries; 0 only in a free husk
    Rank max_rank = 0;           // best own entry
    Chain chain;                 // when this level is its chain's head
  };

  static size_t home(const PackedKey& key, size_t slot_mask);
  /// Index of the slot holding `key` in `a`, or kNoSlot.
  static size_t find_slot(const SlotArray& a, const PackedKey& key) {
    return probe_from(a, key, home(key, a.slots.size() - 1));
  }
  /// find_slot from `key`'s home slot `i`.
  static size_t probe_from(const SlotArray& a, const PackedKey& key, size_t i);
  /// Doubles `a` (or sizes an empty one) until it holds `want` keys at
  /// half load.
  static void grow(SlotArray& a, size_t want);
  /// Fills a free slot for the absent `key`, growing `a` at half load.
  static size_t add_slot(SlotArray& a, const PackedKey& key);
  static void erase_slot(SlotArray& a, size_t i);

  /// One step of the chain search at level `ti`, for `key` already masked
  /// to the level and its home slot `at`: a found slot goes to `found`.
  /// Returns the next level, or kNoTuple once the search ends.
  uint32_t step(uint32_t ti, const PackedKey& key, size_t at, const Slot*& found) const;
  /// The one chain search: binary search from level `ti` down its subtree,
  /// starting from the slot `found` already found above it (or nullptr);
  /// returns the last slot found, whose best answers the levels searched
  /// and every shorter one. `count_probe()` runs once per hash probe.
  template <typename CountProbe>
  const Slot* descend(uint32_t ti, const PackedKey& key, const Slot* found,
                      CountProbe count_probe) const;
  /// The early exit between chains: the hit `best` (of `best_rank`)
  /// strictly outranks every entry of `c` at the tie_bits grain, and so of
  /// every later chain, whose max ranks are no higher.
  bool settled(Handle best, Rank best_rank, const Chain& c) const;
  /// Folds a chain's last found slot `s` into the running best; `last`: no
  /// chain follows, so a first hit is taken without reading its rank.
  void take(const Slot* s, bool last, Handle& best, Rank& best_rank) const;
  template <typename CountProbe>
  Handle find(const PackedKey& key, CountProbe count_probe) const;
  /// find() of `n` <= kBatch keys into `best`, descending them together.
  template <typename CountProbe>
  void find_group(const PackedKey* keys, size_t n, Handle* best, CountProbe count_probe) const;
  template <typename CountProbe>
  void find_batch(std::span<const PackedKey> keys, std::span<Handle> out,
                  CountProbe count_probe) const;
  void mark_searched() const;

  /// No live level shorter than `ti` in its chain holds a rank above `rank`.
  bool outranks_shorter(uint32_t ti, Rank rank) const;
  /// Counts one more marker on `key` at level `ti`, adding the slot if
  /// absent with the best it inherits: `above` (the key's slot at the
  /// previous marker level, or nullptr) or what `ti`'s left subtree holds.
  const Slot* add_marker(uint32_t ti, const PackedKey& key, const Slot* above);
  void drop_marker(uint32_t ti, const PackedKey& key);
  /// Files `h` (already linked) under its own slot and markers, without
  /// best-propagation; true when `h` became its own slot's best.
  bool place(uint32_t ti, Handle h, const PackedKey& key);
  /// Recomputes the best of slot `i` at level `ti` from its own entries
  /// and the shorter levels.
  void refresh_best(uint32_t ti, size_t i);

  const Chain& chain_at(uint32_t ti) const { return tuples_[tuples_[ti].head].chain; }
  uint32_t new_tuple(const PackedKey& mask);
  void free_tuple(uint32_t ti);
  /// Links the new level `ti` into the first chain it nests into, or
  /// makes it a chain of its own; the chain's tree is left to the caller.
  void add_level(uint32_t ti);
  /// Hands the chain headed by `from` to the level `to` ahead of it.
  void move_head(uint32_t from, uint32_t to);
  /// Index in `levels[lo, hi)` of the level that best balances the
  /// entries on either side: the root of a weighted tree over them.
  size_t pick_root(const std::vector<uint32_t>& levels, size_t lo, size_t hi) const;
  /// Weighted search tree over `levels[lo, hi)`; returns its root.
  uint32_t build_tree(const std::vector<uint32_t>& levels, size_t lo, size_t hi);
  /// Builds the weighted tree of the chain headed by `head` over its
  /// levels, which hold no slots.
  void plant(uint32_t head);
  unsigned depth(uint32_t root) const;
  /// Refills the chain headed by `head` over a fresh weighted tree, from
  /// the own entries of its slots.
  void rebuild(uint32_t head);
  /// Rebuilds the whole index with masks grouped into nested chains.
  void regroup();
  /// Best rank over the levels of the chain headed by `head`.
  Rank chain_max_rank(uint32_t head) const;

  /// Puts the chain headed by `head`, which just got its first entry, in
  /// the probe order.
  void enter_order(uint32_t head);
  /// Moves the chain headed by `head` to its place in the probe order
  /// after its max rank changed to `max_rank`.
  void rechain(uint32_t head, Rank max_rank);
  /// Probe-order position of the chain headed by `head`, found by its
  /// current max rank.
  std::vector<uint32_t>::iterator chain_pos(uint32_t head);

  unsigned tie_bits_;
  std::vector<Tuple> tuples_;  // dropped levels stay as empty husks for reuse
  std::vector<uint32_t> free_tuples_;
  SlotArray masks_;  // mask -> level index, in the same slot tables
  // Chain heads sorted by descending chain max_rank: the probe order.
  std::vector<uint32_t> order_;
  std::vector<Link> links_;  // by handle
  // Rebuild scratch, kept so a rebuild allocates nothing once warm.
  std::vector<Handle> rebuild_handles_;
  std::vector<PackedKey> rebuild_keys_;
  std::vector<uint32_t> rebuild_levels_;
  size_t live_tuples_ = 0;
  size_t entries_ = 0;
  bool chained_ = false;  // masks nest into chains (once searched)
  /// Set by the first find() or find_batch(); concurrent readers may race
  /// to set it, so it is atomic, and it copies and moves with the index.
  struct SearchedFlag {
    mutable std::atomic<bool> flag{false};
    SearchedFlag() = default;
    SearchedFlag(const SearchedFlag& o) : flag(o.flag.load(std::memory_order_relaxed)) {}
    SearchedFlag& operator=(const SearchedFlag& o) {
      flag.store(o.flag.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };
  SearchedFlag searched_;
  size_t marker_slots_ = 0;
  Stats stats_;
};

}  // namespace ruletris::tcam
