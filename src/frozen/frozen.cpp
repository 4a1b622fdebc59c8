#include "frozen/frozen.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "flowspace/field.h"

namespace ruletris::frozen {

using flowspace::Action;
using flowspace::ActionType;
using flowspace::FieldId;
using flowspace::kAllFields;
using flowspace::kNumFields;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("frozen: " + what);
}

}  // namespace

namespace detail {

FrozenEntry pack_entry(const MemberEntry& e, std::vector<FrozenAction>& actions_out) {
  FrozenEntry out;
  out.id = e.id;
  out.left_src = e.left_src;
  out.right_src = e.right_src;
  for (size_t f = 0; f < kNumFields; ++f) {
    const auto& ft = e.match.field(kAllFields[f]);
    out.value[f] = ft.value;
    out.mask[f] = ft.mask;
  }
  out.action_begin = static_cast<uint32_t>(actions_out.size());
  out.action_count = static_cast<uint32_t>(e.actions.size());
  for (const Action& a : e.actions.actions()) {
    FrozenAction fa;
    fa.type = static_cast<uint8_t>(a.type);
    fa.field = static_cast<uint8_t>(a.field);
    fa.arg = a.arg;
    actions_out.push_back(fa);
  }
  return out;
}

TernaryMatch unpack_match(const FrozenEntry& e) {
  TernaryMatch m;
  for (size_t f = 0; f < kNumFields; ++f) {
    if (e.mask[f] != 0) m.set_ternary(kAllFields[f], e.value[f], e.mask[f]);
  }
  return m;
}

ActionList unpack_actions(const FrozenEntry& e, std::span<const FrozenAction> pool) {
  const size_t begin = e.action_begin;
  const size_t count = e.action_count;
  if (begin > pool.size() || count > pool.size() - begin) {
    fail("entry action range out of bounds");
  }
  std::vector<Action> list;
  list.reserve(count);
  for (size_t i = begin; i < begin + count; ++i) {
    Action a;
    a.type = static_cast<ActionType>(pool[i].type);
    a.field = static_cast<FieldId>(pool[i].field);
    a.arg = pool[i].arg;
    list.push_back(a);
  }
  return ActionList(std::move(list));
}

MemberEntry unpack_entry(const FrozenEntry& e, std::span<const FrozenAction> pool) {
  MemberEntry out;
  out.id = e.id;
  out.left_src = e.left_src;
  out.right_src = e.right_src;
  out.match = unpack_match(e);
  out.actions = unpack_actions(e, pool);
  return out;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// TableImage / PolicyImage
// ---------------------------------------------------------------------------

compiler::CompileSnapshot TableImage::snapshot() const {
  compiler::CompileSnapshot snap;
  std::unordered_map<RuleId, compiler::CompileSnapshot::Prov> prov;
  prov.reserve(entries.size());
  snap.entries.reserve(entries.size());
  for (const MemberEntry& e : entries) {
    prov.emplace(e.id, compiler::CompileSnapshot::Prov{e.left_src, e.right_src});
    snap.entries.emplace_back(e.left_src, e.right_src, e.match, e.actions);
  }
  // `entries` is provenance-sorted (canonical form), so snap.entries is too.
  snap.reps.reserve(reps.size());
  for (RuleId id : reps) {
    auto it = prov.find(id);
    if (it == prov.end()) fail("representative references unknown entry");
    snap.reps.push_back(it->second);
  }
  std::sort(snap.reps.begin(), snap.reps.end());
  snap.visible_edges.reserve(visible_edges.size());
  for (const auto& [u, v] : visible_edges) {
    auto iu = prov.find(u);
    auto iv = prov.find(v);
    if (iu == prov.end() || iv == prov.end()) fail("edge references unknown entry");
    snap.visible_edges.emplace_back(iu->second, iv->second);
  }
  std::sort(snap.visible_edges.begin(), snap.visible_edges.end());
  return snap;
}

std::vector<Rule> TableImage::visible_rules() const {
  std::unordered_map<RuleId, const MemberEntry*> by_id;
  by_id.reserve(entries.size());
  for (const MemberEntry& e : entries) by_id.emplace(e.id, &e);
  std::vector<Rule> out;
  out.reserve(visible_order.size());
  int32_t priority = static_cast<int32_t>(visible_order.size());
  for (RuleId id : visible_order) {
    auto it = by_id.find(id);
    if (it == by_id.end()) fail("visible order references unknown entry");
    const MemberEntry& e = *it->second;
    out.push_back(Rule{e.id, e.match, e.actions, priority--});
  }
  return out;
}

dag::DependencyGraph TableImage::visible_graph() const {
  dag::DependencyGraph g;
  for (RuleId id : visible_order) g.add_vertex(id);
  for (const auto& [u, v] : visible_edges) g.add_edge(u, v);
  return g;
}

RuleId TableImage::max_rule_id() const {
  RuleId floor = 0;
  for (const MemberEntry& e : entries) {
    floor = std::max({floor, e.id, e.left_src, e.right_src});
  }
  return floor;
}

RuleId PolicyImage::max_rule_id() const {
  RuleId floor = 0;
  for (const TableImage& t : tables) floor = std::max(floor, t.max_rule_id());
  return floor;
}

// ---------------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------------

TableImage capture_table(const compiler::ComposedNode& node) {
  TableImage image;
  const auto members = node.export_members();
  image.entries.reserve(members.size());
  for (const auto& m : members) {
    image.entries.push_back(
        MemberEntry{m.id, m.left_src, m.right_src, *m.match, *m.actions});
  }
  image.reps = node.representative_ids();
  image.visible_edges = node.visible_graph().edges();  // ascending
  image.visible_order = node.visible_order();
  return image;
}

void capture_layout(TableImage& image, const tcam::Tcam& tcam) {
  image.layout.clear();
  image.layout.reserve(tcam.occupied());
  for (size_t addr = 0; addr < tcam.capacity(); ++addr) {
    const auto id = tcam.at(addr);
    if (!id) continue;
    const Rule& r = tcam.rule(*id);
    image.layout.push_back(
        LayoutEntry{*id, static_cast<uint32_t>(addr), r.priority});
  }
  std::sort(image.layout.begin(), image.layout.end(),
            [](const LayoutEntry& a, const LayoutEntry& b) { return a.id < b.id; });
}

PolicyImage capture_policy(const compiler::RuleTrisCompiler& frontend, uint64_t epoch) {
  const auto* root = dynamic_cast<const compiler::ComposedNode*>(&frontend.root());
  if (root == nullptr) fail("policy root is not a composed node");
  PolicyImage image;
  image.epoch = epoch;
  image.tables.push_back(capture_table(*root));
  return image;
}

// ---------------------------------------------------------------------------
// Freeze
// ---------------------------------------------------------------------------

Bytes freeze(const PolicyImage& image) {
  util::ArenaWriter w(kPolicyMagic, kFormatVersion);

  FrozenMeta meta;
  meta.epoch = image.epoch;
  meta.id_floor = image.max_rule_id();
  meta.n_tables = static_cast<uint32_t>(image.tables.size());
  w.add_section(kMetaSection, std::span<const FrozenMeta>(&meta, 1));

  for (uint32_t t = 0; t < image.tables.size(); ++t) {
    const TableImage& table = image.tables[t];

    std::unordered_map<RuleId, uint32_t> index;
    index.reserve(table.entries.size());
    std::vector<FrozenEntry> entries;
    entries.reserve(table.entries.size());
    std::vector<FrozenAction> actions;
    for (const MemberEntry& e : table.entries) {
      if (!index.emplace(e.id, static_cast<uint32_t>(entries.size())).second) {
        fail("duplicate entry id while freezing");
      }
      entries.push_back(detail::pack_entry(e, actions));
    }
    const auto idx = [&index](RuleId id) {
      auto it = index.find(id);
      if (it == index.end()) fail("dangling rule id while freezing");
      return it->second;
    };

    std::vector<uint32_t> reps;
    reps.reserve(table.reps.size());
    for (RuleId id : table.reps) reps.push_back(idx(id));

    std::vector<FrozenEdge> edges;
    edges.reserve(table.visible_edges.size());
    for (const auto& [u, v] : table.visible_edges) {
      edges.push_back(FrozenEdge{idx(u), idx(v)});
    }

    std::vector<uint32_t> order;
    order.reserve(table.visible_order.size());
    for (RuleId id : table.visible_order) order.push_back(idx(id));

    std::vector<FrozenLayout> layout;
    layout.reserve(table.layout.size());
    for (const LayoutEntry& l : table.layout) {
      layout.push_back(FrozenLayout{idx(l.id), l.addr, l.priority, 0});
    }

    w.add_section(table_section(t, kEntriesSlot), entries);
    w.add_section(table_section(t, kActionsSlot), actions);
    w.add_section(table_section(t, kRepsSlot), reps);
    w.add_section(table_section(t, kVisibleEdgesSlot), edges);
    w.add_section(table_section(t, kVisibleOrderSlot), order);
    w.add_section(table_section(t, kLayoutSlot), layout);
  }
  return w.finish();
}

// ---------------------------------------------------------------------------
// FrozenPolicy (zero-copy read path)
// ---------------------------------------------------------------------------

FrozenPolicy::FrozenPolicy(const uint8_t* data, size_t size)
    : view_(data, size, kPolicyMagic, kFormatVersion) {
  const auto metas = view_.section<FrozenMeta>(kMetaSection);
  if (metas.size() != 1) fail("meta section must hold exactly one record");
  meta_ = metas[0];
  for (uint32_t t = 0; t < meta_.n_tables; ++t) {
    // Presence check up front; index bounds are validated on use.
    (void)view_.section<FrozenEntry>(table_section(t, kEntriesSlot));
    (void)view_.section<FrozenAction>(table_section(t, kActionsSlot));
  }
}

std::span<const FrozenEntry> FrozenPolicy::entries(size_t t) const {
  if (t >= meta_.n_tables) fail("table index out of range");
  return view_.section<FrozenEntry>(
      table_section(static_cast<uint32_t>(t), kEntriesSlot));
}

std::span<const FrozenAction> FrozenPolicy::actions(size_t t) const {
  return view_.section<FrozenAction>(
      table_section(static_cast<uint32_t>(t), kActionsSlot));
}

size_t FrozenPolicy::restore(size_t t, tcam::DagScheduler& scheduler) const {
  const auto entry_pool = entries(t);
  const auto action_pool = actions(t);
  const uint32_t ts = static_cast<uint32_t>(t);
  const auto order = view_.section_or_empty<uint32_t>(table_section(ts, kVisibleOrderSlot));
  const auto edges = view_.section_or_empty<FrozenEdge>(table_section(ts, kVisibleEdgesSlot));
  const auto layout = view_.section_or_empty<FrozenLayout>(table_section(ts, kLayoutSlot));

  const auto entry_at = [&](uint32_t i) -> const FrozenEntry& {
    if (i >= entry_pool.size()) fail("entry index out of bounds");
    return entry_pool[i];
  };

  // Everything below works off flat arrays indexed by entry-pool position —
  // the restart critical path pays hash lookups only where the scheduler's
  // own structures require them.
  const uint32_t kNotVisible = UINT32_MAX;
  std::vector<uint32_t> pos(entry_pool.size(), kNotVisible);
  std::vector<RuleId> ids(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    if (pos[order[k]] != kNotVisible) fail("duplicate entry in visible order");
    pos[order[k]] = static_cast<uint32_t>(k);
    ids[k] = entry_at(order[k]).id;
  }

  std::vector<std::pair<uint32_t, uint32_t>> idx_edges;
  idx_edges.reserve(edges.size());
  for (const FrozenEdge& e : edges) {
    if (e.u >= pos.size() || e.v >= pos.size() || pos[e.u] == kNotVisible ||
        pos[e.v] == kNotVisible) {
      fail("edge references an entry outside the visible order");
    }
    idx_edges.emplace_back(pos[e.u], pos[e.v]);
  }
  dag::DependencyGraph graph;
  graph.bulk_load_indexed(ids, idx_edges);

  // The cap cells fall straight out of the frozen edges + layout (the same
  // values CapIndex::rebuild would derive from the loaded graph + TCAM, at
  // flat-array cost); hand them to the scheduler with the layout so it is
  // update-ready without a rebuild.
  const size_t cap = scheduler.capacity();
  tcam::DagScheduler::Layout placed;
  placed.entries.reserve(layout.size());
  placed.lo_succ.assign(cap, static_cast<long long>(cap));
  placed.hi_pred.assign(cap, -1);
  std::vector<long long> addr_of(entry_pool.size(), -1);
  for (const FrozenLayout& l : layout) {
    const FrozenEntry& e = entry_at(l.entry_index);
    if (l.addr >= cap) fail("layout address outside the TCAM");
    placed.entries.push_back(
        {l.addr, Rule{e.id, detail::unpack_match(e),
                      detail::unpack_actions(e, action_pool), l.priority}});
    addr_of[l.entry_index] = static_cast<long long>(l.addr);
  }
  for (const FrozenEdge& e : edges) {
    const long long au = addr_of[e.u];
    const long long av = addr_of[e.v];
    if (au >= 0 && av >= 0) {
      placed.lo_succ[au] = std::min(placed.lo_succ[au], av);
      placed.hi_pred[av] = std::max(placed.hi_pred[av], au);
    }
  }
  scheduler.load(std::move(graph), std::move(placed));
  return layout.size();
}

TableImage FrozenPolicy::materialize(size_t t) const {
  const auto entry_pool = entries(t);
  const auto action_pool = actions(t);
  const uint32_t ts = static_cast<uint32_t>(t);

  const auto id_at = [&](uint32_t i) {
    if (i >= entry_pool.size()) fail("entry index out of bounds");
    return entry_pool[i].id;
  };

  TableImage image;
  image.entries.reserve(entry_pool.size());
  for (const FrozenEntry& e : entry_pool) {
    image.entries.push_back(detail::unpack_entry(e, action_pool));
  }
  for (uint32_t i : view_.section_or_empty<uint32_t>(table_section(ts, kRepsSlot))) {
    image.reps.push_back(id_at(i));
  }
  for (const FrozenEdge& e :
       view_.section_or_empty<FrozenEdge>(table_section(ts, kVisibleEdgesSlot))) {
    image.visible_edges.emplace_back(id_at(e.u), id_at(e.v));
  }
  for (uint32_t i :
       view_.section_or_empty<uint32_t>(table_section(ts, kVisibleOrderSlot))) {
    image.visible_order.push_back(id_at(i));
  }
  for (const FrozenLayout& l :
       view_.section_or_empty<FrozenLayout>(table_section(ts, kLayoutSlot))) {
    image.layout.push_back(LayoutEntry{id_at(l.entry_index), l.addr, l.priority});
  }
  return image;
}

PolicyImage thaw(const uint8_t* data, size_t size) {
  FrozenPolicy frozen(data, size);
  PolicyImage image;
  image.epoch = frozen.epoch();
  image.tables.reserve(frozen.n_tables());
  for (size_t t = 0; t < frozen.n_tables(); ++t) {
    image.tables.push_back(frozen.materialize(t));
  }
  flowspace::ensure_rule_id_floor(frozen.id_floor());
  return image;
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

MappedBlob::MappedBlob(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("cannot open " + path + ": " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail("cannot stat " + path);
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ != 0) {
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m != MAP_FAILED) {
      mapping_ = m;
      data_ = static_cast<const uint8_t*>(m);
    } else {
      fallback_.resize(size_);
      size_t got = 0;
      while (got < size_) {
        const ssize_t n = ::read(fd, fallback_.data() + got, size_ - got);
        if (n <= 0) {
          ::close(fd);
          fail("cannot read " + path);
        }
        got += static_cast<size_t>(n);
      }
      data_ = fallback_.data();
    }
  }
  ::close(fd);
}

MappedBlob::~MappedBlob() {
  if (mapping_ != nullptr) ::munmap(mapping_, size_);
}

void write_blob_file(const std::string& path, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) fail("cannot write " + path + ": " + std::strerror(errno));
  const size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = written == bytes.size() && std::fclose(f) == 0;
  if (!ok) fail("short write to " + path);
}

}  // namespace ruletris::frozen
