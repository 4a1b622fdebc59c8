#include "frozen/delta.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/arena.h"

namespace ruletris::frozen {

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("frozen delta: ") + what);
}

bool prov_less(const MemberEntry& a, const MemberEntry& b) {
  if (a.left_src != b.left_src) return a.left_src < b.left_src;
  return a.right_src < b.right_src;
}

TableDelta diff_table(const TableImage& from, const TableImage& to) {
  TableDelta d;

  std::unordered_set<RuleId> from_ids;
  from_ids.reserve(from.entries.size());
  for (const MemberEntry& e : from.entries) from_ids.insert(e.id);
  std::unordered_set<RuleId> to_ids;
  to_ids.reserve(to.entries.size());
  for (const MemberEntry& e : to.entries) to_ids.insert(e.id);

  for (const MemberEntry& e : from.entries) {
    if (to_ids.count(e.id) == 0) d.removed_entries.push_back(e.id);
  }
  std::sort(d.removed_entries.begin(), d.removed_entries.end());
  for (const MemberEntry& e : to.entries) {  // provenance order preserved
    if (from_ids.count(e.id) == 0) d.added_entries.push_back(e);
  }

  std::set_difference(from.reps.begin(), from.reps.end(), to.reps.begin(),
                      to.reps.end(), std::back_inserter(d.reps_removed));
  std::set_difference(to.reps.begin(), to.reps.end(), from.reps.begin(),
                      from.reps.end(), std::back_inserter(d.reps_added));

  std::set_difference(from.visible_edges.begin(), from.visible_edges.end(),
                      to.visible_edges.begin(), to.visible_edges.end(),
                      std::back_inserter(d.edges_removed));
  std::set_difference(to.visible_edges.begin(), to.visible_edges.end(),
                      from.visible_edges.begin(), from.visible_edges.end(),
                      std::back_inserter(d.edges_added));

  // Visible order: removals are implied (ids absent from `to`); additions
  // are (id, final position) inserts. Verify the surviving-order invariant
  // while we are the one place that holds both sides.
  std::unordered_set<RuleId> to_visible(to.visible_order.begin(),
                                        to.visible_order.end());
  std::vector<RuleId> reconstructed;
  reconstructed.reserve(to.visible_order.size());
  for (RuleId id : from.visible_order) {
    if (to_visible.count(id) != 0) reconstructed.push_back(id);
  }
  std::unordered_set<RuleId> from_visible(from.visible_order.begin(),
                                          from.visible_order.end());
  for (uint64_t pos = 0; pos < to.visible_order.size(); ++pos) {
    const RuleId id = to.visible_order[pos];
    if (from_visible.count(id) != 0) continue;
    d.order_inserts.emplace_back(id, pos);
    if (pos > reconstructed.size()) fail("order insert position out of range");
    reconstructed.insert(reconstructed.begin() + static_cast<ptrdiff_t>(pos), id);
  }
  if (reconstructed != to.visible_order) {
    fail("surviving rules reordered between epochs");
  }
  return d;
}

void apply_table(TableImage& table, const TableDelta& d) {
  if (!d.removed_entries.empty()) {
    std::unordered_set<RuleId> removed(d.removed_entries.begin(),
                                       d.removed_entries.end());
    const size_t before = table.entries.size();
    table.entries.erase(
        std::remove_if(table.entries.begin(), table.entries.end(),
                       [&removed](const MemberEntry& e) {
                         return removed.count(e.id) != 0;
                       }),
        table.entries.end());
    if (before - table.entries.size() != removed.size()) {
      fail("removal names an absent entry");
    }
  }
  if (!d.added_entries.empty()) {
    std::vector<MemberEntry> merged;
    merged.reserve(table.entries.size() + d.added_entries.size());
    std::merge(table.entries.begin(), table.entries.end(),
               d.added_entries.begin(), d.added_entries.end(),
               std::back_inserter(merged), prov_less);
    table.entries = std::move(merged);
  }

  const auto apply_sorted_ids = [](std::vector<RuleId>& ids,
                                   const std::vector<RuleId>& removed,
                                   const std::vector<RuleId>& added) {
    std::vector<RuleId> next;
    next.reserve(ids.size() + added.size());
    std::set_difference(ids.begin(), ids.end(), removed.begin(), removed.end(),
                        std::back_inserter(next));
    if (ids.size() - next.size() != removed.size()) {
      fail("removal names an absent element");
    }
    std::vector<RuleId> out;
    out.reserve(next.size() + added.size());
    std::merge(next.begin(), next.end(), added.begin(), added.end(),
               std::back_inserter(out));
    ids = std::move(out);
  };
  apply_sorted_ids(table.reps, d.reps_removed, d.reps_added);

  {
    std::vector<std::pair<RuleId, RuleId>> next;
    next.reserve(table.visible_edges.size() + d.edges_added.size());
    std::set_difference(table.visible_edges.begin(), table.visible_edges.end(),
                        d.edges_removed.begin(), d.edges_removed.end(),
                        std::back_inserter(next));
    if (table.visible_edges.size() - next.size() != d.edges_removed.size()) {
      fail("edge removal names an absent edge");
    }
    std::vector<std::pair<RuleId, RuleId>> out;
    out.reserve(next.size() + d.edges_added.size());
    std::merge(next.begin(), next.end(), d.edges_added.begin(),
               d.edges_added.end(), std::back_inserter(out));
    table.visible_edges = std::move(out);
  }

  {
    std::unordered_set<RuleId> alive;
    alive.reserve(table.entries.size());
    for (const MemberEntry& e : table.entries) alive.insert(e.id);
    std::vector<RuleId> order;
    order.reserve(table.visible_order.size() + d.order_inserts.size());
    for (RuleId id : table.visible_order) {
      if (alive.count(id) != 0) order.push_back(id);
    }
    // Rep churn among surviving entries: an id can leave the visible order
    // without its entry being removed (its key got a different rep).
    if (!d.reps_removed.empty()) {
      std::unordered_set<RuleId> dropped(d.reps_removed.begin(),
                                         d.reps_removed.end());
      order.erase(std::remove_if(order.begin(), order.end(),
                                 [&dropped](RuleId id) {
                                   return dropped.count(id) != 0;
                                 }),
                  order.end());
    }
    for (const auto& [id, pos] : d.order_inserts) {
      if (pos > order.size()) fail("order insert position out of range");
      order.insert(order.begin() + static_cast<ptrdiff_t>(pos), id);
    }
    table.visible_order = std::move(order);
  }

  // The frozen layout described the base snapshot's device; stale now.
  table.layout.clear();
}

}  // namespace

PolicyDelta diff(const PolicyImage& from, const PolicyImage& to) {
  if (from.tables.size() != to.tables.size()) fail("table count changed");
  PolicyDelta delta;
  delta.from_epoch = from.epoch;
  delta.to_epoch = to.epoch;
  delta.tables.reserve(from.tables.size());
  for (size_t t = 0; t < from.tables.size(); ++t) {
    delta.tables.push_back(diff_table(from.tables[t], to.tables[t]));
  }
  return delta;
}

namespace {

compiler::ComposedNode& composed_root(compiler::RuleTrisCompiler& frontend) {
  auto* root = dynamic_cast<compiler::ComposedNode*>(&frontend.root());
  if (root == nullptr) fail("policy root is not a composed node");
  return *root;
}

}  // namespace

void start_recording(compiler::RuleTrisCompiler& frontend) {
  composed_root(frontend).start_recording();
}

PolicyDelta seal_recorded(compiler::RuleTrisCompiler& frontend,
                          uint64_t from_epoch, uint64_t to_epoch) {
  compiler::ComposedNode& root = composed_root(frontend);
  if (!root.recording()) fail("policy root is not recording");
  compiler::ComposedNode::Recorded rec = root.take_recorded();
  compiler::ChurnLog::Net& net = rec.net;

  TableDelta d;
  d.removed_entries = std::move(net.entries_removed);
  d.added_entries.reserve(net.entries_added.size());
  for (RuleId id : net.entries_added) {
    const compiler::ComposedNode::MemberView m = root.member(id);
    d.added_entries.push_back(
        MemberEntry{m.id, m.left_src, m.right_src, *m.match, *m.actions});
  }
  std::sort(d.added_entries.begin(), d.added_entries.end(), prov_less);
  // At an epoch boundary the representatives are exactly the visible rules.
  d.reps_removed = std::move(net.visible_removed);
  d.reps_added = std::move(net.visible_added);
  d.edges_removed = std::move(net.edges_removed);
  d.edges_added = std::move(net.edges_added);
  d.order_inserts = order_edit(rec.boundary_order, root.visible_order(),
                               d.reps_removed, d.reps_added);

  PolicyDelta delta;
  delta.from_epoch = from_epoch;
  delta.to_epoch = to_epoch;
  delta.tables.push_back(std::move(d));
  return delta;
}

std::vector<std::pair<RuleId, uint64_t>> order_edit(
    const std::vector<RuleId>& from, const std::vector<RuleId>& to,
    const std::vector<RuleId>& removed, const std::vector<RuleId>& joined) {
  const auto in = [](const std::vector<RuleId>& sorted, RuleId id) {
    return std::binary_search(sorted.begin(), sorted.end(), id);
  };
  std::vector<std::pair<RuleId, uint64_t>> inserts;
  inserts.reserve(joined.size());
  size_t next = 0;  // cursor into `from`
  size_t dropped = 0;
  const auto skip_removed = [&] {
    for (; next < from.size() && in(removed, from[next]); ++next) ++dropped;
  };
  for (uint64_t pos = 0; pos < to.size(); ++pos) {
    const RuleId id = to[pos];
    if (in(joined, id)) {
      inserts.emplace_back(id, pos);
      continue;
    }
    skip_removed();
    if (next == from.size() || from[next] != id) {
      fail("surviving rules reordered between epochs");
    }
    ++next;
  }
  skip_removed();
  if (next != from.size() || dropped != removed.size() ||
      inserts.size() != joined.size()) {
    fail("recorded visible churn disagrees with the visible order");
  }
  return inserts;
}

void apply_delta(PolicyImage& image, const PolicyDelta& delta) {
  if (image.epoch != delta.from_epoch) fail("epoch chain mismatch");
  if (image.tables.size() != delta.tables.size()) fail("table count mismatch");
  for (size_t t = 0; t < delta.tables.size(); ++t) {
    apply_table(image.tables[t], delta.tables[t]);
  }
  image.epoch = delta.to_epoch;
}

Bytes encode_delta(const PolicyDelta& delta) {
  util::ArenaWriter w(kDeltaMagic, kFormatVersion);

  FrozenDeltaMeta meta;
  meta.from_epoch = delta.from_epoch;
  meta.to_epoch = delta.to_epoch;
  meta.n_tables = static_cast<uint32_t>(delta.tables.size());
  for (const TableDelta& td : delta.tables) {
    for (const MemberEntry& e : td.added_entries) {
      meta.id_floor = std::max({meta.id_floor, e.id, e.left_src, e.right_src});
    }
  }
  w.add_section(kMetaSection, std::span<const FrozenDeltaMeta>(&meta, 1));

  for (uint32_t t = 0; t < delta.tables.size(); ++t) {
    const TableDelta& td = delta.tables[t];

    std::vector<FrozenEntry> added;
    added.reserve(td.added_entries.size());
    std::vector<FrozenAction> actions;
    for (const MemberEntry& e : td.added_entries) {
      added.push_back(detail::pack_entry(e, actions));
    }
    const auto id_edges = [](const std::vector<std::pair<RuleId, RuleId>>& in) {
      std::vector<FrozenIdEdge> out;
      out.reserve(in.size());
      for (const auto& [u, v] : in) out.push_back(FrozenIdEdge{u, v});
      return out;
    };
    std::vector<FrozenOrderInsert> inserts;
    inserts.reserve(td.order_inserts.size());
    for (const auto& [id, pos] : td.order_inserts) {
      inserts.push_back(FrozenOrderInsert{id, pos});
    }

    w.add_section(table_section(t, kRemovedEntriesSlot), td.removed_entries);
    w.add_section(table_section(t, kAddedEntriesSlot), added);
    w.add_section(table_section(t, kAddedActionsSlot), actions);
    w.add_section(table_section(t, kRepsRemovedSlot), td.reps_removed);
    w.add_section(table_section(t, kRepsAddedSlot), td.reps_added);
    w.add_section(table_section(t, kEdgesRemovedSlot), id_edges(td.edges_removed));
    w.add_section(table_section(t, kEdgesAddedSlot), id_edges(td.edges_added));
    w.add_section(table_section(t, kOrderInsertsSlot), inserts);
  }
  return w.finish();
}

PolicyDelta decode_delta(const uint8_t* data, size_t size) {
  util::ArenaView view(data, size, kDeltaMagic, kFormatVersion);
  const auto metas = view.section<FrozenDeltaMeta>(kMetaSection);
  if (metas.size() != 1) fail("meta section must hold exactly one record");
  const FrozenDeltaMeta& meta = metas[0];

  PolicyDelta delta;
  delta.from_epoch = meta.from_epoch;
  delta.to_epoch = meta.to_epoch;
  delta.tables.resize(meta.n_tables);
  for (uint32_t t = 0; t < meta.n_tables; ++t) {
    TableDelta& td = delta.tables[t];
    const auto ids = [&view, t](uint32_t slot) {
      const auto s = view.section_or_empty<RuleId>(table_section(t, slot));
      return std::vector<RuleId>(s.begin(), s.end());
    };
    td.removed_entries = ids(kRemovedEntriesSlot);
    const auto added =
        view.section_or_empty<FrozenEntry>(table_section(t, kAddedEntriesSlot));
    const auto actions =
        view.section_or_empty<FrozenAction>(table_section(t, kAddedActionsSlot));
    td.added_entries.reserve(added.size());
    for (const FrozenEntry& e : added) {
      td.added_entries.push_back(detail::unpack_entry(e, actions));
    }
    td.reps_removed = ids(kRepsRemovedSlot);
    td.reps_added = ids(kRepsAddedSlot);
    const auto edges = [&view, t](uint32_t slot) {
      std::vector<std::pair<RuleId, RuleId>> out;
      for (const FrozenIdEdge& e :
           view.section_or_empty<FrozenIdEdge>(table_section(t, slot))) {
        out.emplace_back(e.u, e.v);
      }
      return out;
    };
    td.edges_removed = edges(kEdgesRemovedSlot);
    td.edges_added = edges(kEdgesAddedSlot);
    for (const FrozenOrderInsert& oi : view.section_or_empty<FrozenOrderInsert>(
             table_section(t, kOrderInsertsSlot))) {
      td.order_inserts.emplace_back(oi.id, oi.pos);
    }
  }
  flowspace::ensure_rule_id_floor(meta.id_floor);
  return delta;
}

}  // namespace ruletris::frozen
