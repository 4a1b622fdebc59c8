#include "tcam/tuple_space.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/hash.h"

namespace ruletris::tcam {

namespace {

constexpr size_t kMinSlots = 2;

PackedKey masked(const PackedKey& key, const PackedKey& mask) {
  return {key[0] & mask[0], key[1] & mask[1]};
}

/// Every bit of `a` is set in `b`.
bool within(const PackedKey& a, const PackedKey& b) {
  return (a[0] & ~b[0]) == 0 && (a[1] & ~b[1]) == 0;
}

}  // namespace

TupleSpace::TupleSpace(unsigned tie_bits) : tie_bits_(tie_bits) {
  grow(masks_, 4);  // a slot array is never empty
}

// --- slot arrays -------------------------------------------------------------

size_t TupleSpace::home(const PackedKey& key, size_t slot_mask) {
  return util::hash_pair(key[0], key[1]) & slot_mask;
}

size_t TupleSpace::probe_from(const SlotArray& a, const PackedKey& key, size_t i) {
  const size_t mask = a.slots.size() - 1;
  for (;; i = (i + 1) & mask) {
    const Slot& s = a.slots[i];
    if (s.markers == kFree) return kNoSlot;
    if (s.key == key) return i;
  }
}

void TupleSpace::grow(SlotArray& a, size_t want) {
  size_t n = a.slots.empty() ? kMinSlots : a.slots.size() * 2;
  while (want * 2 > n) n *= 2;
  std::vector<Slot> old = std::move(a.slots);
  a.slots.assign(n, Slot{});
  const size_t mask = n - 1;
  for (const Slot& s : old) {
    if (s.markers == kFree) continue;
    size_t i = home(s.key, mask);
    while (a.slots[i].markers != kFree) i = (i + 1) & mask;
    a.slots[i] = s;
  }
}

size_t TupleSpace::add_slot(SlotArray& a, const PackedKey& key) {
  if ((a.used + 1) * 2 > a.slots.size()) grow(a, a.used + 1);
  const size_t mask = a.slots.size() - 1;
  size_t i = home(key, mask);
  while (a.slots[i].markers != kFree) i = (i + 1) & mask;
  a.slots[i].key = key;
  a.slots[i].markers = 0;
  ++a.used;
  return i;
}

void TupleSpace::erase_slot(SlotArray& a, size_t hole) {
  const size_t mask = a.slots.size() - 1;
  for (size_t j = (hole + 1) & mask; a.slots[j].markers != kFree; j = (j + 1) & mask) {
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

// --- lookup ------------------------------------------------------------------

uint32_t TupleSpace::step(uint32_t ti, const PackedKey& key, size_t at,
                          const Slot*& found) const {
  const Tuple& t = tuples_[ti];
  const size_t i = probe_from(t.table, key, at);
  // A miss: every entry in the longer half would have left a marker here.
  if (i == kNoSlot) return t.left;
  found = &t.table.slots[i];
  return found->markers == 0 ? kNoTuple : t.right;  // 0: no longer entry extends the key
}

template <typename CountProbe>
const TupleSpace::Slot* TupleSpace::descend(uint32_t ti, const PackedKey& key,
                                            const Slot* found,
                                            CountProbe count_probe) const {
  while (ti != kNoTuple) {
    const Tuple& t = tuples_[ti];
    count_probe();
    const PackedKey k = masked(key, t.mask);
    ti = step(ti, k, home(k, t.table.slots.size() - 1), found);
  }
  return found;
}

bool TupleSpace::settled(Handle best, Rank best_rank, const Chain& c) const {
  return best != kNone && (best_rank >> tie_bits_) > (c.max_rank >> tie_bits_);
}

void TupleSpace::take(const Slot* s, bool last, Handle& best, Rank& best_rank) const {
  if (s == nullptr || s->best == kNone) return;
  if (best == kNone && last) {
    best = s->best;  // no rank to compare
    return;
  }
  const Rank rank = links_[s->best].rank;
  if (best == kNone || rank > best_rank) {
    best = s->best;
    best_rank = rank;
  }
}

template <typename CountProbe>
TupleSpace::Handle TupleSpace::find(const PackedKey& key, CountProbe count_probe) const {
  Handle best = kNone;
  Rank best_rank = 0;
  for (size_t k = 0; k < order_.size(); ++k) {
    const Chain& c = tuples_[order_[k]].chain;
    if (settled(best, best_rank, c)) break;
    // The last slot found carries the chain's best covering entry.
    take(descend(c.root, key, nullptr, count_probe), k + 1 == order_.size(), best, best_rank);
  }
  return best;
}

template <typename CountProbe>
void TupleSpace::find_group(const PackedKey* keys, size_t n, Handle* best,
                            CountProbe count_probe) const {
  Rank best_rank[kBatch] = {};
  uint32_t active[kBatch] = {};  // keys still searching chains, by index
  size_t n_active = n;
  for (uint32_t j = 0; j < n; ++j) {
    best[j] = kNone;
    active[j] = j;
  }
  // find() per key, chains in the same order; only the descent interleaves.
  uint32_t level[kBatch] = {};
  const Slot* found[kBatch] = {};
  PackedKey probe[kBatch] = {};  // the key masked to its next level
  size_t at[kBatch] = {};        // and its home slot there
  uint32_t walking[kBatch] = {};
  for (size_t k = 0; k < order_.size() && n_active > 0; ++k) {
    const Chain& c = tuples_[order_[k]].chain;
    size_t n_walking = 0;
    size_t kept = 0;
    for (size_t a = 0; a < n_active; ++a) {
      const uint32_t j = active[a];
      if (settled(best[j], best_rank[j], c)) continue;  // and stays out
      active[kept++] = j;
      level[j] = c.root;
      found[j] = nullptr;
      if (c.root != kNoTuple) walking[n_walking++] = j;
    }
    n_active = kept;
    while (n_walking > 0) {
      // Issue every key's next probe before taking any of them.
      for (size_t w = 0; w < n_walking; ++w) {
        const uint32_t j = walking[w];
        const Tuple& t = tuples_[level[j]];
        probe[j] = masked(keys[j], t.mask);
        at[j] = home(probe[j], t.table.slots.size() - 1);
        __builtin_prefetch(&t.table.slots[at[j]]);
      }
      size_t still = 0;
      for (size_t w = 0; w < n_walking; ++w) {
        const uint32_t j = walking[w];
        count_probe();
        level[j] = step(level[j], probe[j], at[j], found[j]);
        if (level[j] != kNoTuple) walking[still++] = j;
      }
      n_walking = still;
    }
    for (size_t a = 0; a < n_active; ++a) {
      const uint32_t j = active[a];
      take(found[j], k + 1 == order_.size(), best[j], best_rank[j]);
    }
  }
}

template <typename CountProbe>
void TupleSpace::find_batch(std::span<const PackedKey> keys, std::span<Handle> out,
                            CountProbe count_probe) const {
  if (keys.size() != out.size()) {
    throw std::invalid_argument("TupleSpace::find_batch: keys and out differ in length");
  }
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    find_group(keys.data() + base, std::min(kBatch, keys.size() - base), out.data() + base,
               count_probe);
  }
}

void TupleSpace::mark_searched() const {
  if (!searched_.flag.load(std::memory_order_relaxed)) {
    searched_.flag.store(true, std::memory_order_relaxed);
  }
}

TupleSpace::Handle TupleSpace::find(const PackedKey& key) const {
  mark_searched();
  return find(key, [] {});
}

TupleSpace::Handle TupleSpace::find_counted(const PackedKey& key) {
  mark_searched();
  ++stats_.lookups;
  return find(key, [this] { ++stats_.tuples_probed; });
}

void TupleSpace::find_batch(std::span<const PackedKey> keys, std::span<Handle> out) const {
  mark_searched();
  find_batch(keys, out, [] {});
}

void TupleSpace::find_batch_counted(std::span<const PackedKey> keys, std::span<Handle> out) {
  mark_searched();
  stats_.lookups += keys.size();
  find_batch(keys, out, [this] { ++stats_.tuples_probed; });
}

// --- slots, markers and bests ------------------------------------------------
//
// The levels on the tree path to a level `ti` where the path turns to the
// longer side are `ti`'s marker levels: every key live at `ti` has a slot
// at each of them. The levels shorter than `ti` are those marker levels and
// what lies between them, in their left subtrees and `ti`'s own; so the best
// a key inherits at `ti` is its slot at the last marker level, then a search
// of `ti`'s left subtree.

bool TupleSpace::outranks_shorter(uint32_t ti, Rank rank) const {
  for (uint32_t x = tuples_[ti].head; x != ti; x = tuples_[x].longer) {
    if (tuples_[x].max_rank > rank) return false;
  }
  return true;
}

const TupleSpace::Slot* TupleSpace::add_marker(uint32_t ti, const PackedKey& key,
                                               const Slot* above) {
  SlotArray& a = tuples_[ti].table;
  size_t i = find_slot(a, key);
  if (i == kNoSlot) {
    const Slot* inherited = descend(tuples_[ti].left, key, above, [] {});
    const Handle best = inherited == nullptr ? kNone : inherited->best;
    i = add_slot(a, key);
    a.slots[i].best = best;
    ++marker_slots_;
  }
  ++a.slots[i].markers;
  return &a.slots[i];
}

void TupleSpace::drop_marker(uint32_t ti, const PackedKey& key) {
  SlotArray& a = tuples_[ti].table;
  const size_t i = find_slot(a, key);
  if (--a.slots[i].markers == 0 && a.slots[i].own == kNone) {
    erase_slot(a, i);
    --marker_slots_;
  }
}

bool TupleSpace::place(uint32_t ti, Handle h, const PackedKey& key) {
  const Rank rank = links_[h].rank;
  const unsigned bits = tuples_[ti].bits;
  const Slot* above = nullptr;  // slot at the last marker level
  for (uint32_t n = chain_at(ti).root; n != ti;) {
    if (bits > tuples_[n].bits) {
      above = add_marker(n, masked(key, tuples_[n].mask), above);
      n = tuples_[n].right;
    } else {
      n = tuples_[n].left;
    }
  }
  SlotArray& a = tuples_[ti].table;
  size_t i = find_slot(a, key);
  if (i == kNoSlot) {
    // An entry that outranks every shorter level is its own slot's best.
    const Slot* inherited =
        outranks_shorter(ti, rank) ? nullptr : descend(tuples_[ti].left, key, above, [] {});
    const Handle best = inherited == nullptr ? kNone : inherited->best;
    i = add_slot(a, key);
    a.slots[i].best = best;
  } else if (a.slots[i].own == kNone) {
    --marker_slots_;  // a marker gains its first own entry
  }
  // Same-match entries chain best-first behind the slot's own head.
  Slot& s = a.slots[i];
  Handle& head = s.own;
  if (head == kNone || rank > links_[head].rank) {
    links_[h].next = head;
    head = h;
  } else {
    Handle at = head;
    while (links_[at].next != kNone && links_[links_[at].next].rank > rank) {
      at = links_[at].next;
    }
    links_[h].next = links_[at].next;
    links_[at].next = h;
  }
  const bool improves = s.best == kNone || rank > links_[s.best].rank;
  if (improves) s.best = h;
  return improves;
}

void TupleSpace::refresh_best(uint32_t ti, size_t i) {
  const Tuple& t = tuples_[ti];
  Slot& s = tuples_[ti].table.slots[i];
  const Slot* above = nullptr;
  for (uint32_t n = chain_at(ti).root; n != ti;) {
    const Tuple& nt = tuples_[n];
    if (t.bits > nt.bits) {
      above = &nt.table.slots[find_slot(nt.table, masked(s.key, nt.mask))];
      n = nt.right;
    } else {
      n = nt.left;
    }
  }
  const Slot* inherited = descend(t.left, s.key, above, [] {});
  s.best = inherited == nullptr ? kNone : inherited->best;
  if (s.own != kNone && (s.best == kNone || links_[s.own].rank > links_[s.best].rank)) {
    s.best = s.own;
  }
}

// --- levels and chains -------------------------------------------------------

uint32_t TupleSpace::new_tuple(const PackedKey& mask) {
  uint32_t ti = static_cast<uint32_t>(tuples_.size());
  if (free_tuples_.empty()) {
    tuples_.emplace_back();
  } else {
    ti = free_tuples_.back();
    free_tuples_.pop_back();
  }
  Tuple& t = tuples_[ti];
  t.mask = mask;
  t.bits = static_cast<unsigned>(std::popcount(mask[0]) + std::popcount(mask[1]));
  grow(t.table, 1);  // a slot array is never empty
  masks_.slots[add_slot(masks_, mask)].best = ti;
  return ti;
}

void TupleSpace::free_tuple(uint32_t ti) {
  Tuple& t = tuples_[ti];
  for (const Slot& s : t.table.slots) {
    if (s.markers != kFree && s.own == kNone) --marker_slots_;
  }
  erase_slot(masks_, find_slot(masks_, t.mask));
  t = Tuple{};  // frees the slot array
  free_tuples_.push_back(ti);
}

void TupleSpace::add_level(uint32_t ti) {
  // The first chain, in probe order, that the mask nests into takes it
  // between its shorter and longer levels.
  Tuple& t = tuples_[ti];
  t.head = ti;  // or a chain of its own
  for (size_t k = 0; chained_ && k < order_.size(); ++k) {
    const uint32_t head = order_[k];
    uint32_t shorter = kNoTuple;
    uint32_t at = head;
    while (at != kNoTuple && tuples_[at].bits < t.bits) {
      shorter = at;
      at = tuples_[at].longer;
    }
    if (shorter != kNoTuple && !within(tuples_[shorter].mask, t.mask)) continue;
    if (at != kNoTuple && (tuples_[at].bits == t.bits || !within(t.mask, tuples_[at].mask))) {
      continue;
    }
    t.longer = at;
    if (shorter == kNoTuple) {
      move_head(head, ti);
    } else {
      tuples_[shorter].longer = ti;
      t.head = head;
    }
    return;
  }
}

void TupleSpace::move_head(uint32_t from, uint32_t to) {
  *chain_pos(from) = to;
  tuples_[to].chain = tuples_[from].chain;
  tuples_[from].chain = Chain{};
  for (uint32_t x = to; x != kNoTuple; x = tuples_[x].longer) tuples_[x].head = to;
}

size_t TupleSpace::pick_root(const std::vector<uint32_t>& levels, size_t lo, size_t hi) const {
  // The level that best balances the entries on either side.
  size_t total = 0;
  for (size_t k = lo; k < hi; ++k) total += tuples_[levels[k]].entries;
  size_t root = lo;
  size_t best_side = ~size_t{0};
  size_t below = 0;
  for (size_t k = lo; k < hi; ++k) {
    const size_t w = tuples_[levels[k]].entries;
    const size_t side = std::max(below, total - below - w);
    if (side < best_side) {
      best_side = side;
      root = k;
    }
    below += w;
  }
  return root;
}

uint32_t TupleSpace::build_tree(const std::vector<uint32_t>& levels, size_t lo, size_t hi) {
  if (lo >= hi) return kNoTuple;
  const size_t root = pick_root(levels, lo, hi);
  const uint32_t left = build_tree(levels, lo, root);
  const uint32_t right = build_tree(levels, root + 1, hi);
  tuples_[levels[root]].left = left;
  tuples_[levels[root]].right = right;
  return levels[root];
}

void TupleSpace::plant(uint32_t head) {
  std::vector<uint32_t>& levels = rebuild_levels_;
  levels.clear();
  for (uint32_t ti = head; ti != kNoTuple; ti = tuples_[ti].longer) levels.push_back(ti);
  tuples_[head].chain.root = build_tree(levels, 0, levels.size());
}

unsigned TupleSpace::depth(uint32_t root) const {
  if (root == kNoTuple) return 0;
  return 1 + std::max(depth(tuples_[root].left), depth(tuples_[root].right));
}

unsigned TupleSpace::max_depth() const {
  unsigned out = 0;
  for (uint32_t head : order_) out = std::max(out, depth(tuples_[head].chain.root));
  return out;
}

std::vector<TupleSpace::ChainView> TupleSpace::chains() const {
  std::vector<ChainView> out;
  for (uint32_t head : order_) {
    ChainView v;
    for (uint32_t ti = head; ti != kNoTuple; ti = tuples_[ti].longer) {
      v.masks.push_back(tuples_[ti].mask);
    }
    v.depth = depth(tuples_[head].chain.root);
    out.push_back(std::move(v));
  }
  return out;
}

void TupleSpace::rebuild(uint32_t head) {
  ++stats_.chain_rebuilds;
  std::vector<Handle>& handles = rebuild_handles_;
  std::vector<PackedKey>& keys = rebuild_keys_;
  handles.clear();
  keys.clear();
  for (uint32_t ti = head; ti != kNoTuple; ti = tuples_[ti].longer) {
    SlotArray& a = tuples_[ti].table;
    for (const Slot& s : a.slots) {
      if (s.markers == kFree) continue;
      if (s.own == kNone) {
        --marker_slots_;
        continue;
      }
      // Worst first, so each refiled entry heads its same-match chain.
      const size_t from = handles.size();
      for (Handle h = s.own; h != kNone; h = links_[h].next) {
        handles.push_back(h);
        keys.push_back(s.key);
      }
      std::reverse(handles.begin() + static_cast<ptrdiff_t>(from), handles.end());
    }
    std::fill(a.slots.begin(), a.slots.end(), Slot{});
    a.used = 0;
    tuples_[ti].left = tuples_[ti].right = kNoTuple;
  }
  plant(head);
  // Shortest level first: every shorter level is complete when a slot
  // takes its inherited best, so nothing needs propagating.
  for (size_t k = 0; k < handles.size(); ++k) place(links_[handles[k]].tuple, handles[k], keys[k]);
}

TupleSpace::Rank TupleSpace::chain_max_rank(uint32_t head) const {
  Rank max_rank = 0;
  for (uint32_t ti = head; ti != kNoTuple; ti = tuples_[ti].longer) {
    max_rank = std::max(max_rank, tuples_[ti].max_rank);
  }
  return max_rank;
}

std::vector<uint32_t>::iterator TupleSpace::chain_pos(uint32_t head) {
  // Max ranks are unique (ranks are), so the chain's own key finds it.
  const Rank r = tuples_[head].chain.max_rank;
  return std::partition_point(order_.begin(), order_.end(),
                              [&](uint32_t x) { return tuples_[x].chain.max_rank > r; });
}

void TupleSpace::enter_order(uint32_t head) {
  order_.insert(chain_pos(head), head);
}

void TupleSpace::rechain(uint32_t head, Rank max_rank) {
  const auto from = chain_pos(head);
  tuples_[head].chain.max_rank = max_rank;
  const auto ahead = [&](uint32_t x) { return tuples_[x].chain.max_rank > max_rank; };
  // A risen chain moves forward, a fallen one back; the rest keep order.
  const auto to = std::partition_point(order_.begin(), from, ahead);
  if (to != from) {
    std::rotate(to, from, from + 1);
  } else {
    std::rotate(from, from + 1, std::partition_point(from + 1, order_.end(), ahead));
  }
}

// --- writes ------------------------------------------------------------------

void TupleSpace::assign(const std::vector<Entry>& entries) {
  if (!links_.empty()) throw std::logic_error("TupleSpace::assign: index not empty");
  Handle top = 0;
  for (const Entry& e : entries) {
    if (e.handle == kNone) throw std::invalid_argument("TupleSpace::assign: invalid handle");
    top = std::max(top, e.handle);
  }
  chained_ = true;
  if (entries.empty()) return;
  links_.resize(size_t{top} + 1);
  entries_ = entries.size();

  // Levels by mask, with their entry counts and best ranks. Tables list
  // rules in priority order, so runs of one mask are common.
  std::vector<uint32_t> fresh;
  uint32_t ti = kNoTuple;
  for (const Entry& e : entries) {
    if (ti == kNoTuple || tuples_[ti].mask != e.match.mask) {
      const size_t known = find_slot(masks_, e.match.mask);
      if (known != kNoSlot) {
        ti = masks_.slots[known].best;
      } else {
        ti = new_tuple(e.match.mask);
        fresh.push_back(ti);
      }
    }
    Tuple& t = tuples_[ti];
    t.max_rank = t.entries++ == 0 ? e.rank : std::max(t.max_rank, e.rank);
    links_[e.handle] = Link{e.rank, kNone, ti};
  }
  live_tuples_ = fresh.size();

  // Chains, greedily by popcount: each mask joins the first chain whose
  // longest mask nests in it.
  std::sort(fresh.begin(), fresh.end(), [&](uint32_t a, uint32_t b) {
    if (tuples_[a].bits != tuples_[b].bits) return tuples_[a].bits < tuples_[b].bits;
    return tuples_[a].mask < tuples_[b].mask;
  });
  std::vector<uint32_t> heads;
  std::vector<uint32_t> longest;  // by chain
  for (uint32_t ti : fresh) {
    Tuple& t = tuples_[ti];
    size_t k = 0;
    while (k < longest.size() && !(tuples_[longest[k]].bits < t.bits &&
                                   within(tuples_[longest[k]].mask, t.mask))) {
      ++k;
    }
    if (k == longest.size()) {
      heads.push_back(ti);
      longest.push_back(ti);
    } else {
      tuples_[longest[k]].longer = ti;
      longest[k] = ti;
    }
    t.head = heads[k];
    Chain& c = tuples_[t.head].chain;
    c.max_rank = c.entries == 0 ? t.max_rank : std::max(c.max_rank, t.max_rank);
    c.entries += t.entries;
    grow(t.table, t.entries);
  }
  for (uint32_t head : heads) {
    plant(head);
    enter_order(head);
  }

  // Fill shortest level first (a counting sort on popcount), so every slot
  // takes its inherited best from complete shorter levels.
  std::vector<size_t> start(130, 0);
  for (const Entry& e : entries) ++start[tuples_[links_[e.handle].tuple].bits + 1];
  for (size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<uint32_t> by_level(entries.size());
  for (uint32_t k = 0; k < entries.size(); ++k) {
    by_level[start[tuples_[links_[entries[k].handle].tuple].bits]++] = k;
  }
  for (uint32_t k : by_level) {
    const Entry& e = entries[k];
    place(links_[e.handle].tuple, e.handle, masked(e.match.value, e.match.mask));
  }
}

void TupleSpace::insert(Handle h, const PackedMatch& m, Rank rank) {
  if (h == kNone) throw std::invalid_argument("TupleSpace::insert: invalid handle");
  // The first write after the first search nests the masks into chains.
  if (!chained_ && searched_.flag.load(std::memory_order_relaxed)) regroup();
  if (h >= links_.size()) links_.resize(size_t{h} + 1);
  const size_t known = find_slot(masks_, m.mask);
  const bool new_level = known == kNoSlot;
  const uint32_t ti = new_level ? new_tuple(m.mask) : masks_.slots[known].best;
  if (new_level) add_level(ti);
  links_[h] = Link{rank, kNone, ti};
  const PackedKey key = masked(m.value, m.mask);
  ++entries_;

  Tuple& t = tuples_[ti];
  if (t.entries++ == 0) {
    ++live_tuples_;
    t.max_rank = rank;
  } else {
    t.max_rank = std::max(t.max_rank, rank);
  }
  Chain& c = tuples_[t.head].chain;
  if (c.entries++ == 0) {
    c.max_rank = rank;
    enter_order(t.head);
  } else if (rank > c.max_rank) {
    rechain(t.head, rank);
  }
  if (new_level && t.head == ti && t.longer == kNoTuple) {
    c.root = ti;  // a chain of its own
  } else if (new_level) {
    // A level joined the chain: file `h` as its one entry and refill the
    // chain over a tree weighted with it.
    t.table.slots[add_slot(t.table, key)].own = h;
    rebuild(t.head);
    return;
  }

  if (place(ti, h, key)) {
    // `h` is now the best covering its key: every longer slot extending
    // the key takes it unless it already holds a better one.
    uint64_t visits = 0;
    for (uint32_t x = t.longer; x != kNoTuple; x = tuples_[x].longer) {
      for (Slot& s : tuples_[x].table.slots) {
        if (s.markers == kFree) continue;
        ++visits;
        if (masked(s.key, m.mask) == key && (s.best == kNone || rank > links_[s.best].rank)) {
          s.best = h;
        }
      }
    }
    stats_.propagation_visits += visits;
  }
}

void TupleSpace::regroup() {
  std::vector<Entry> entries;
  entries.reserve(entries_);
  for (const Tuple& t : tuples_) {
    if (t.entries == 0) continue;  // husks
    for (const Slot& s : t.table.slots) {
      if (s.markers == kFree) continue;
      for (Handle h = s.own; h != kNone; h = links_[h].next) {
        entries.push_back({h, PackedMatch{s.key, t.mask}, links_[h].rank});
      }
    }
  }
  TupleSpace grouped(tie_bits_);
  grouped.searched_.flag.store(true, std::memory_order_relaxed);
  grouped.stats_ = stats_;
  ++grouped.stats_.chain_rebuilds;
  grouped.links_.reserve(links_.capacity());
  grouped.assign(entries);
  *this = std::move(grouped);
}

void TupleSpace::erase(Handle h, const PackedMatch& m) {
  const Link link = links_[h];
  const uint32_t ti = link.tuple;
  const PackedKey key = masked(m.value, m.mask);
  links_[h] = Link{};
  --entries_;
  Tuple& t = tuples_[ti];
  uint32_t head = t.head;
  --tuples_[head].chain.entries;
  if (--t.entries == 0) {
    // The level leaves its chain, and the rest is refilled over a tree
    // without it. Its one own slot still names `h`, so freeing the level
    // counts off only its marker slots.
    --live_tuples_;
    if (tuples_[head].chain.entries == 0) {
      order_.erase(chain_pos(head));  // the chain's last level
    } else if (head == ti) {
      head = t.longer;
      move_head(ti, head);
    } else {
      uint32_t at = head;
      while (tuples_[at].longer != ti) at = tuples_[at].longer;
      tuples_[at].longer = t.longer;
    }
    free_tuple(ti);
    if (head == ti) return;
    if (link.rank == tuples_[head].chain.max_rank) rechain(head, chain_max_rank(head));
    rebuild(head);
    return;
  }
  Chain& c = tuples_[head].chain;

  // Markers live at shorter levels, so slot `i` stays put while they go.
  SlotArray& a = t.table;
  const size_t i = find_slot(a, key);
  if (a.slots[i].own == h) {
    a.slots[i].own = link.next;
  } else {
    Handle at = a.slots[i].own;
    while (links_[at].next != h) at = links_[at].next;
    links_[at].next = link.next;
  }
  for (uint32_t n = c.root; n != ti;) {
    if (t.bits > tuples_[n].bits) {
      drop_marker(n, masked(key, tuples_[n].mask));
      n = tuples_[n].right;
    } else {
      n = tuples_[n].left;
    }
  }
  const bool was_best = a.slots[i].best == h;
  if (a.slots[i].own == kNone && a.slots[i].markers == 0) {
    erase_slot(a, i);
  } else {
    if (a.slots[i].own == kNone) ++marker_slots_;  // the slot lives on as a marker
    if (was_best) refresh_best(ti, i);
  }
  if (was_best) {
    // Longer slots that took `h` as their best fall back to their own
    // entries or shorter levels, shortest first so each reads exact ones.
    uint64_t visits = 0;
    for (uint32_t x = t.longer; x != kNoTuple; x = tuples_[x].longer) {
      std::vector<Slot>& slots = tuples_[x].table.slots;
      for (size_t j = 0; j < slots.size(); ++j) {
        if (slots[j].markers == kFree) continue;
        ++visits;
        if (slots[j].best == h) refresh_best(x, j);
      }
    }
    stats_.propagation_visits += visits;
  }
  if (link.rank == t.max_rank) {
    // The own heads are each slot's best same-match entry.
    Rank max_rank = 0;
    for (const Slot& s : a.slots) {
      if (s.markers != kFree && s.own != kNone) max_rank = std::max(max_rank, links_[s.own].rank);
    }
    t.max_rank = max_rank;
  }
  if (link.rank == c.max_rank) rechain(head, chain_max_rank(head));
}

}  // namespace ruletris::tcam
