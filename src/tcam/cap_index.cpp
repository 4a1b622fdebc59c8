#include "tcam/cap_index.h"

#include <algorithm>
#include <stdexcept>

namespace ruletris::tcam {

using flowspace::RuleId;

CapIndex::CapIndex(size_t capacity)
    : capacity_(capacity),
      lo_succ_(capacity, static_cast<long long>(capacity)),
      hi_pred_(capacity, -1) {}

void CapIndex::rebuild(const Tcam& tcam, const dag::DependencyGraph& graph) {
  caps_.clear();
  lo_succ_.assign(capacity_, static_cast<long long>(capacity_));
  hi_pred_.assign(capacity_, -1);
  // One pass over the out-adjacency covers both cell arrays: edge u -> v
  // caps u from above (lo_succ) and v from below (hi_pred). No per-vertex
  // sets are built — they hydrate on first touch.
  for (const RuleId u : graph.vertices()) {
    const auto au = tcam.address_if(u);
    for (const RuleId v : graph.successors(u)) {
      const auto av = tcam.address_if(v);
      if (au && av) {
        lo_succ_[*au] = std::min(lo_succ_[*au], static_cast<long long>(*av));
        hi_pred_[*av] = std::max(hi_pred_[*av], static_cast<long long>(*au));
      }
    }
  }
}

void CapIndex::load_cells(std::vector<long long> lo_succ,
                          std::vector<long long> hi_pred) {
  if (lo_succ.size() != capacity_ || hi_pred.size() != capacity_) {
    throw std::invalid_argument("CapIndex: cell arrays must match capacity");
  }
  caps_.clear();
  lo_succ_ = std::move(lo_succ);
  hi_pred_ = std::move(hi_pred);
}

void CapIndex::AddrSet::insert(size_t addr) {
  const auto it = std::lower_bound(addrs_.begin(), addrs_.end(), addr);
  if (it == addrs_.end() || *it != addr) addrs_.insert(it, addr);
}

void CapIndex::AddrSet::erase(size_t addr) {
  const auto it = std::lower_bound(addrs_.begin(), addrs_.end(), addr);
  if (it != addrs_.end() && *it == addr) addrs_.erase(it);
}

CapIndex::VertexCaps& CapIndex::hydrate(RuleId id,
                                        const dag::DependencyGraph& graph,
                                        const Tcam& tcam) {
  if (VertexCaps* c = caps_.find(id)) return *c;
  VertexCaps& c = caps_[id];
  for (const RuleId succ : graph.successors(id)) {
    if (const auto a = tcam.address_if(succ)) c.succ_addrs.insert(*a);
  }
  for (const RuleId pred : graph.predecessors(id)) {
    if (const auto a = tcam.address_if(pred)) c.pred_addrs.insert(*a);
  }
  return c;
}

std::pair<long long, long long> CapIndex::bounds_of(
    RuleId id, const dag::DependencyGraph& graph, const Tcam& tcam) {
  const VertexCaps& c = hydrate(id, graph, tcam);
  const long long lo =
      c.pred_addrs.empty() ? -1 : static_cast<long long>(c.pred_addrs.max());
  const long long hi = c.succ_addrs.empty() ? static_cast<long long>(capacity_)
                                            : static_cast<long long>(c.succ_addrs.min());
  return {lo, hi};
}

void CapIndex::refresh_cells_at(size_t addr, const VertexCaps& caps) {
  lo_succ_[addr] = caps.succ_addrs.empty() ? static_cast<long long>(capacity_)
                                            : static_cast<long long>(caps.succ_addrs.min());
  hi_pred_[addr] =
      caps.pred_addrs.empty() ? -1 : static_cast<long long>(caps.pred_addrs.max());
}

void CapIndex::refresh_cells(RuleId id, const VertexCaps& caps, const Tcam& tcam) {
  if (const auto a = tcam.address_if(id)) refresh_cells_at(*a, caps);
}

void CapIndex::on_write(RuleId id, size_t addr,
                        const dag::DependencyGraph& graph, const Tcam& tcam) {
  // `id` became an installed predecessor of its successors and an installed
  // successor of its predecessors. A write only *tightens* neighbour caps,
  // so unhydrated neighbours take a direct min/max on their cells; hydrated
  // ones keep their sets exact. The new entry's own cells fall out of the
  // same neighbour scan.
  long long own_lo = static_cast<long long>(capacity_);
  long long own_hi = -1;
  for (const RuleId succ : graph.successors(id)) {
    // Hydrated sets track installed-neighbour addresses even for vertices
    // that are currently evicted, so the set update must not hinge on the
    // neighbour being installed.
    if (VertexCaps* c = caps_.find(succ)) {
      c->pred_addrs.insert(addr);
    }
    if (const auto as = tcam.address_if(succ)) {
      own_lo = std::min(own_lo, static_cast<long long>(*as));
      hi_pred_[*as] = std::max(hi_pred_[*as], static_cast<long long>(addr));
    }
  }
  for (const RuleId pred : graph.predecessors(id)) {
    if (VertexCaps* c = caps_.find(pred)) {
      c->succ_addrs.insert(addr);
    }
    if (const auto ap = tcam.address_if(pred)) {
      own_hi = std::max(own_hi, static_cast<long long>(*ap));
      lo_succ_[*ap] = std::min(lo_succ_[*ap], static_cast<long long>(addr));
    }
  }
  lo_succ_[addr] = own_lo;
  hi_pred_[addr] = own_hi;
}

void CapIndex::on_move(size_t from, size_t to, const dag::DependencyGraph& graph,
                       const Tcam& tcam) {
  const RuleId id = *tcam.at(to);
  long long own_lo = static_cast<long long>(capacity_);
  long long own_hi = -1;
  for (const RuleId succ : graph.successors(id)) {
    const auto as = tcam.address_if(succ);
    if (as) own_lo = std::min(own_lo, static_cast<long long>(*as));
    if (VertexCaps* c = caps_.find(succ)) {
      c->pred_addrs.erase(from);
      c->pred_addrs.insert(to);
      if (as) refresh_cells_at(*as, *c);
    } else if (as) {
      if (hi_pred_[*as] == static_cast<long long>(from)) {
        // The cap may drop; hydrating post-move already reflects `to`.
        refresh_cells_at(*as, hydrate(succ, graph, tcam));
      } else {
        hi_pred_[*as] = std::max(hi_pred_[*as], static_cast<long long>(to));
      }
    }
  }
  for (const RuleId pred : graph.predecessors(id)) {
    const auto ap = tcam.address_if(pred);
    if (ap) own_hi = std::max(own_hi, static_cast<long long>(*ap));
    if (VertexCaps* c = caps_.find(pred)) {
      c->succ_addrs.erase(from);
      c->succ_addrs.insert(to);
      if (ap) refresh_cells_at(*ap, *c);
    } else if (ap) {
      if (lo_succ_[*ap] == static_cast<long long>(from)) {
        refresh_cells_at(*ap, hydrate(pred, graph, tcam));
      } else {
        lo_succ_[*ap] = std::min(lo_succ_[*ap], static_cast<long long>(to));
      }
    }
  }
  lo_succ_[from] = static_cast<long long>(capacity_);
  hi_pred_[from] = -1;
  lo_succ_[to] = own_lo;
  hi_pred_[to] = own_hi;
}

void CapIndex::on_erase(RuleId id, size_t addr,
                        const dag::DependencyGraph& graph, const Tcam& tcam) {
  // An erase can only *loosen* neighbour caps, and only when the erased
  // address was the binding one — that is the case that needs the ordered
  // set (the next-best address), so it is where unhydrated vertices get
  // hydrated. Post-erase hydration no longer sees `addr`, making the
  // follow-up erase a no-op.
  for (const RuleId succ : graph.successors(id)) {
    const auto as = tcam.address_if(succ);
    if (VertexCaps* c = caps_.find(succ)) {
      c->pred_addrs.erase(addr);
      if (as) refresh_cells_at(*as, *c);
    } else if (as && hi_pred_[*as] == static_cast<long long>(addr)) {
      VertexCaps& h = hydrate(succ, graph, tcam);
      h.pred_addrs.erase(addr);
      refresh_cells_at(*as, h);
    }
  }
  for (const RuleId pred : graph.predecessors(id)) {
    const auto ap = tcam.address_if(pred);
    if (VertexCaps* c = caps_.find(pred)) {
      c->succ_addrs.erase(addr);
      if (ap) refresh_cells_at(*ap, *c);
    } else if (ap && lo_succ_[*ap] == static_cast<long long>(addr)) {
      VertexCaps& h = hydrate(pred, graph, tcam);
      h.succ_addrs.erase(addr);
      refresh_cells_at(*ap, h);
    }
  }
  lo_succ_[addr] = static_cast<long long>(capacity_);
  hi_pred_[addr] = -1;
  // caps_[id] survives if hydrated: the addresses of still-installed
  // neighbours stay valid, so a later reinsert gets O(1) bounds.
}

void CapIndex::on_add_edge(RuleId u, RuleId v, const dag::DependencyGraph&,
                           const Tcam& tcam) {
  // A new edge only tightens caps: direct cell min/max; sets only if
  // already hydrated (insert is idempotent whether the graph mutation has
  // happened yet or not).
  const auto au = tcam.address_if(u);
  const auto av = tcam.address_if(v);
  if (av) {
    if (VertexCaps* c = caps_.find(u)) {
      c->succ_addrs.insert(*av);
    }
    if (au) lo_succ_[*au] = std::min(lo_succ_[*au], static_cast<long long>(*av));
  }
  if (au) {
    if (VertexCaps* c = caps_.find(v)) {
      c->pred_addrs.insert(*au);
    }
    if (av) hi_pred_[*av] = std::max(hi_pred_[*av], static_cast<long long>(*au));
  }
}

void CapIndex::on_remove_edge(RuleId u, RuleId v,
                              const dag::DependencyGraph& graph,
                              const Tcam& tcam) {
  const auto au = tcam.address_if(u);
  const auto av = tcam.address_if(v);
  if (av) {
    if (VertexCaps* c = caps_.find(u)) {
      c->succ_addrs.erase(*av);
      refresh_cells(u, *c, tcam);
    } else if (au && lo_succ_[*au] == static_cast<long long>(*av)) {
      // The binding cap went away; hydrate and drop the stale address (a
      // no-op when the graph edge was already removed before this call).
      VertexCaps& h = hydrate(u, graph, tcam);
      h.succ_addrs.erase(*av);
      refresh_cells_at(*au, h);
    }
  }
  if (au) {
    if (VertexCaps* c = caps_.find(v)) {
      c->pred_addrs.erase(*au);
      refresh_cells(v, *c, tcam);
    } else if (av && hi_pred_[*av] == static_cast<long long>(*au)) {
      VertexCaps& h = hydrate(v, graph, tcam);
      h.pred_addrs.erase(*au);
      refresh_cells_at(*av, h);
    }
  }
}

}  // namespace ruletris::tcam
