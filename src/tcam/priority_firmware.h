// Priority-based switch firmware — the behaviour RuleTris replaces.
//
// Commodity firmware only knows integer priorities, so it must keep the
// TCAM totally ordered by priority (higher priority at a higher address).
// On insert it binary-searches the allowed address band; if no free slot
// lies inside the band it shifts the contiguous block of entries between
// the band and the nearest free slot by one position each — the "massive
// redundant TCAM moves" of Sec. II-a / Sec. V-A. Deletes just invalidate.
// A modify that changes priority is a delete + insert (naive firmware).
#pragma once

#include "compiler/prioritized.h"
#include "tcam/tcam.h"

namespace ruletris::tcam {

class PriorityFirmware {
 public:
  explicit PriorityFirmware(Tcam& tcam);

  /// Applies a compiler's prioritized update stream; false if the TCAM is
  /// full on some insert.
  bool apply(const compiler::PrioritizedUpdate& update);

  bool insert(const Rule& rule);
  void remove(flowspace::RuleId id);
  bool modify(const Rule& rule);

  /// True iff occupied entries are totally ordered by priority (ties free).
  bool layout_sorted() const;

 private:
  /// Exclusive address bounds implied by priorities: every installed rule
  /// with a strictly higher priority sits above `hi`, strictly lower below
  /// `lo`. O(log^2 n) via the TCAM's occupancy index (layout is
  /// priority-sorted).
  std::pair<long long, long long> priority_bounds(int32_t priority) const;

  int32_t priority_at(size_t addr) const;

  /// Shifts the block [from, free_slot) up / (free_slot, from] down by one,
  /// opening `from` for the new entry.
  void shift_up(size_t from, size_t free_slot);
  void shift_down(size_t from, size_t free_slot);

  Tcam& tcam_;
};

}  // namespace ruletris::tcam
