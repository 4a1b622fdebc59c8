// Epoch deltas between consecutive PolicyImages.
//
// A PolicyDelta is the minimal edit script taking a frozen snapshot at
// epoch E to the snapshot at epoch E+1: entry removals/additions (member
// entries are immutable per id — the compiler only ever adds or removes
// them), representative churn, visible-edge churn, and the visible-order
// edit. Order is encoded as (id, final position) inserts applied ascending
// after the removals, which reconstructs the new order exactly because the
// compiler never reorders surviving rules relative to each other
// (MinDagMaintainer keeps an insertion-positioned total order) — both delta
// sources verify that invariant and throw if it ever breaks.
//
// Two sources produce the same delta. seal_recorded() is the live path: it
// seals an epoch from the churn the compiler recorded on the policy root,
// at O(churn) cost. diff() compares two full captures; it is the
// differential oracle (tests, bench/warm_boot, audited fleet switches).
//
// Deltas intentionally do not carry TCAM layout: a delta updates the
// *compiled* image (what snapshot() compares); the device layout evolves on
// the switch via the normal scheduled updates. apply_delta() therefore
// clears the stale layout of the image it patches.
//
// encode_delta() serializes to an arena blob (kDeltaMagic) small enough to
// ship as a proto::SnapshotPatch message over the CRC32-framed codec;
// encoding is deterministic, so re-encoding a decoded delta is bit-identical.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "frozen/frozen.h"

namespace ruletris::frozen {

struct TableDelta {
  std::vector<RuleId> removed_entries;     // ids, ascending
  std::vector<MemberEntry> added_entries;  // full records, provenance-sorted
  std::vector<RuleId> reps_removed;        // ids, ascending
  std::vector<RuleId> reps_added;          // ids, ascending
  std::vector<std::pair<RuleId, RuleId>> edges_removed;  // sorted
  std::vector<std::pair<RuleId, RuleId>> edges_added;    // sorted
  /// (id, final position) pairs, ascending by position.
  std::vector<std::pair<RuleId, uint64_t>> order_inserts;

  bool empty() const {
    return removed_entries.empty() && added_entries.empty() &&
           reps_removed.empty() && reps_added.empty() && edges_removed.empty() &&
           edges_added.empty() && order_inserts.empty();
  }

  bool operator==(const TableDelta&) const = default;
};

struct PolicyDelta {
  uint64_t from_epoch = 0;
  uint64_t to_epoch = 0;
  std::vector<TableDelta> tables;

  bool operator==(const PolicyDelta&) const = default;
};

/// Structural diff from `from` to `to`. Throws when the images have
/// different table counts or when the surviving-order invariant does not
/// hold (it always does for images captured from the compiler). The
/// differential oracle for seal_recorded().
PolicyDelta diff(const PolicyImage& from, const PolicyImage& to);

/// Starts churn recording on a single-table policy's composed root (see
/// compiler::ComposedNode::take_recorded); the current state becomes the
/// boundary the next seal_recorded() diffs from. Throws like
/// capture_policy() when the root is not a composed node.
void start_recording(compiler::RuleTrisCompiler& frontend);

/// Seals the epoch the root recorded since start_recording() or the last
/// seal into exactly the delta diff() computes between captures of the two
/// boundaries — same canonical order, so encode_delta() is byte-identical —
/// then starts the next epoch. Costs O(churn + visible ids); nothing is
/// captured. Throws std::runtime_error when the root is not recording or,
/// as diff() does, when the surviving visible order changed.
PolicyDelta seal_recorded(compiler::RuleTrisCompiler& frontend,
                          uint64_t from_epoch, uint64_t to_epoch);

/// The visible-order edit from `from` to `to`, given the ids that left and
/// joined the visible set (both ascending): (id, position in `to`) for each
/// joined id, ascending by position. Throws std::runtime_error unless `to`
/// without the joined ids equals `from` without the removed ids — the
/// surviving-order invariant diff() checks.
std::vector<std::pair<RuleId, uint64_t>> order_edit(
    const std::vector<RuleId>& from, const std::vector<RuleId>& to,
    const std::vector<RuleId>& removed, const std::vector<RuleId>& joined);

/// Applies a delta in place. Epochs must chain (image.epoch ==
/// delta.from_epoch); every removal must name present state. Keeps the
/// image canonical (sorted forms) and clears stale TCAM layouts. Throws
/// std::runtime_error on any mismatch, leaving the image unspecified.
void apply_delta(PolicyImage& image, const PolicyDelta& delta);

/// Serializes to an arena blob (kDeltaMagic / kFormatVersion).
/// Deterministic: decode_delta(encode_delta(d)) re-encodes bit-identically.
Bytes encode_delta(const PolicyDelta& delta);

/// Parses a delta blob; throws std::runtime_error on corruption. Bumps the
/// process rule-id counter past every id the delta introduces.
PolicyDelta decode_delta(const uint8_t* data, size_t size);
inline PolicyDelta decode_delta(const Bytes& bytes) {
  return decode_delta(bytes.data(), bytes.size());
}

}  // namespace ruletris::frozen
