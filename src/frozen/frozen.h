// Frozen compile artifacts: capture, freeze, thaw.
//
// The live compiler keeps its state in pointer-rich heap structures
// (unordered maps, key vertices, a MinDagMaintainer). This layer decouples
// that state from the heap: PolicyImage is a flat, value-typed image of one
// compiled policy (member entries, key-vertex representatives, visible
// minimum-DAG edges, visible order, and optionally the TCAM layout a
// DagScheduler had installed); freeze() serializes it into an offset-based
// arena blob (util/arena.h + format.h) and thaw() reads one back. A
// restarted controller maps the blob, rebuilds the scheduler graph and TCAM
// layout straight from the sections, and is update-ready without paying the
// cold compile — the ROADMAP item 3 warm-boot path.
//
// Two read paths exist on purpose:
//  * thaw(bytes) materializes a full PolicyImage (value types, easy to
//    diff/compare; used by the delta layer and the equality tests).
//  * FrozenPolicy wraps the validated blob zero-copy and restores a
//    DagScheduler directly from the frozen sections — the restart critical
//    path, where materializing heap vectors first would burn the latency
//    budget the format exists to save.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compiler/composed_node.h"
#include "compiler/ruletris_compiler.h"
#include "dag/dependency_graph.h"
#include "flowspace/rule.h"
#include "frozen/format.h"
#include "tcam/dag_scheduler.h"
#include "util/arena.h"

namespace ruletris::frozen {

using flowspace::ActionList;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;

using Bytes = std::vector<uint8_t>;

/// One member entry of a composed table, by value.
struct MemberEntry {
  RuleId id = 0;
  RuleId left_src = 0;
  RuleId right_src = 0;
  TernaryMatch match;
  ActionList actions;

  bool operator==(const MemberEntry&) const = default;
};

/// TCAM placement of one installed rule.
struct LayoutEntry {
  RuleId id = 0;
  uint32_t addr = 0;
  int32_t priority = 0;

  bool operator==(const LayoutEntry&) const = default;
};

/// Value-typed image of one compiled table (one composed root).
/// Canonical form — maintained by capture/thaw/delta-apply alike so that
/// operator== is meaningful: entries sorted by (left_src, right_src), reps
/// sorted by id, visible_edges sorted, layout sorted by id. visible_order
/// is semantic order (matched first), not sorted.
struct TableImage {
  std::vector<MemberEntry> entries;
  std::vector<RuleId> reps;
  std::vector<std::pair<RuleId, RuleId>> visible_edges;  // (u, v): u -> v
  std::vector<RuleId> visible_order;                     // matched-first
  std::vector<LayoutEntry> layout;                       // may be empty

  /// Id-independent snapshot, comparable against a live
  /// ComposedNode::snapshot() (thaw ≡ recompile equality).
  compiler::CompileSnapshot snapshot() const;

  /// Visible rules in matched-first order with the descending priorities
  /// the live node would assign.
  std::vector<Rule> visible_rules() const;

  /// Visible minimum DAG over rule ids (vertices = visible order).
  dag::DependencyGraph visible_graph() const;

  /// Highest rule id referenced by this table (0 when empty).
  RuleId max_rule_id() const;

  bool operator==(const TableImage&) const = default;
};

/// Whole-policy image at one compiler epoch.
struct PolicyImage {
  uint64_t epoch = 0;
  std::vector<TableImage> tables;

  RuleId max_rule_id() const;

  bool operator==(const PolicyImage&) const = default;
};

/// Captures the compiled state of one composed node (no TCAM layout).
TableImage capture_table(const compiler::ComposedNode& node);

/// Fills `image.layout` from a scheduler's TCAM (every occupied slot).
void capture_layout(TableImage& image, const tcam::Tcam& tcam);

/// Captures a single-table policy at `epoch` from a compiler root. Throws
/// when the root is not a ComposedNode (leaf-only policies have no frozen
/// state worth saving).
PolicyImage capture_policy(const compiler::RuleTrisCompiler& frontend, uint64_t epoch);

/// Serializes to an arena blob (kPolicyMagic / kFormatVersion).
Bytes freeze(const PolicyImage& image);

/// Parses and fully materializes a blob; throws std::runtime_error on any
/// corruption (magic, version, bounds, CRC, dangling cross-references).
/// Bumps the process rule-id counter past every id in the blob.
PolicyImage thaw(const uint8_t* data, size_t size);
inline PolicyImage thaw(const Bytes& bytes) { return thaw(bytes.data(), bytes.size()); }

/// Zero-copy view over a validated frozen blob: the warm-boot fast path.
/// Does not own the bytes; keep the buffer or mapping alive while in use.
class FrozenPolicy {
 public:
  FrozenPolicy(const uint8_t* data, size_t size);

  uint64_t epoch() const { return meta_.epoch; }
  RuleId id_floor() const { return meta_.id_floor; }
  size_t n_tables() const { return meta_.n_tables; }

  /// Restores a scheduler to the frozen state of table `t` through
  /// DagScheduler::load: the visible DAG, every layout entry at its frozen
  /// TCAM address, and the cap cells derived from the two. The scheduler
  /// must be empty (fresh TCAM). Returns the number of entries written.
  size_t restore(size_t t, tcam::DagScheduler& scheduler) const;

  /// Materializes table `t` by value (slow path; equality checks, deltas).
  TableImage materialize(size_t t) const;

 private:
  std::span<const FrozenEntry> entries(size_t t) const;
  std::span<const FrozenAction> actions(size_t t) const;

  util::ArenaView view_;
  FrozenMeta meta_;
};

/// Read-only mmap of a blob file; unmaps on destruction. Falls back to a
/// heap read if mmap is unavailable.
class MappedBlob {
 public:
  explicit MappedBlob(const std::string& path);
  ~MappedBlob();

  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* mapping_ = nullptr;  // non-null iff mmap'ed
  std::vector<uint8_t> fallback_;
};

/// Writes a blob to `path` (truncating); throws on I/O failure.
void write_blob_file(const std::string& path, const Bytes& bytes);

namespace detail {

// Record packing shared by the snapshot writer and the delta encoder.

/// Packs one member entry; its actions go to `actions_out` and the entry's
/// range fields point at them.
FrozenEntry pack_entry(const MemberEntry& e, std::vector<FrozenAction>& actions_out);

TernaryMatch unpack_match(const FrozenEntry& e);

/// Unpacks the action range; throws on an out-of-bounds range.
ActionList unpack_actions(const FrozenEntry& e, std::span<const FrozenAction> pool);

MemberEntry unpack_entry(const FrozenEntry& e, std::span<const FrozenAction> pool);

}  // namespace detail

}  // namespace ruletris::frozen
