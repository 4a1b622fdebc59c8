#include "tcam/priority_firmware.h"

#include <stdexcept>

#include "util/logging.h"

namespace ruletris::tcam {

using compiler::PrioritizedOp;
using flowspace::RuleId;

PriorityFirmware::PriorityFirmware(Tcam& tcam) : tcam_(tcam) {
  if (!layout_sorted()) {
    throw std::invalid_argument("PriorityFirmware: initial layout not priority-sorted");
  }
}

int32_t PriorityFirmware::priority_at(size_t addr) const {
  return tcam_.rule(*tcam_.at(addr)).priority;
}

std::pair<long long, long long> PriorityFirmware::priority_bounds(int32_t priority) const {
  const size_t n = tcam_.occupied();
  long long lo = -1;
  long long hi = static_cast<long long>(tcam_.capacity());

  // Smallest rank with priority > `priority` (ranks ascend with address, and
  // the layout keeps priorities non-decreasing with address).
  {
    size_t lo_rank = 0, hi_rank = n;
    while (lo_rank < hi_rank) {
      const size_t mid = lo_rank + (hi_rank - lo_rank) / 2;
      const size_t addr = *tcam_.kth_occupied(mid);
      if (priority_at(addr) > priority) {
        hi_rank = mid;
      } else {
        lo_rank = mid + 1;
      }
    }
    if (lo_rank < n) hi = static_cast<long long>(*tcam_.kth_occupied(lo_rank));
  }
  // Largest rank with priority < `priority`.
  {
    size_t lo_rank = 0, hi_rank = n;  // first rank with priority >= `priority`
    while (lo_rank < hi_rank) {
      const size_t mid = lo_rank + (hi_rank - lo_rank) / 2;
      const size_t addr = *tcam_.kth_occupied(mid);
      if (priority_at(addr) >= priority) {
        hi_rank = mid;
      } else {
        lo_rank = mid + 1;
      }
    }
    if (lo_rank > 0) lo = static_cast<long long>(*tcam_.kth_occupied(lo_rank - 1));
  }
  return {lo, hi};
}

void PriorityFirmware::shift_up(size_t from, size_t free_slot) {
  for (size_t a = free_slot; a-- > from;) {
    tcam_.move(a, a + 1);
  }
}

void PriorityFirmware::shift_down(size_t from, size_t free_slot) {
  for (size_t a = free_slot + 1; a <= from; ++a) {
    tcam_.move(a, a - 1);
  }
}

bool PriorityFirmware::insert(const Rule& rule) {
  const auto [lo, hi] = priority_bounds(rule.priority);

  // Free slot inside the allowed band: single write.
  if (hi - lo > 1) {
    auto free_in_band =
        tcam_.nearest_free_at_or_above(static_cast<size_t>(lo + 1));
    if (free_in_band && static_cast<long long>(*free_in_band) < hi) {
      tcam_.write(*free_in_band, rule);
      return true;
    }
  }

  // Otherwise shift the contiguous block toward the nearest free slot.
  std::optional<size_t> hole_up, hole_down;
  if (hi < static_cast<long long>(tcam_.capacity())) {
    hole_up = tcam_.nearest_free_at_or_above(static_cast<size_t>(hi));
  }
  if (lo >= 0) {
    hole_down = tcam_.nearest_free_at_or_below(static_cast<size_t>(lo));
  }
  if (!hole_up && !hole_down) {
    util::log_warn("PriorityFirmware: TCAM full on insert");
    return false;
  }
  const long long cost_up =
      hole_up ? static_cast<long long>(*hole_up) - hi : -1;
  const long long cost_down = hole_down ? lo - static_cast<long long>(*hole_down) : -1;

  if (hole_up && (!hole_down || cost_up <= cost_down)) {
    shift_up(static_cast<size_t>(hi), *hole_up);
    tcam_.write(static_cast<size_t>(hi), rule);
  } else {
    shift_down(static_cast<size_t>(lo), *hole_down);
    tcam_.write(static_cast<size_t>(lo), rule);
  }
  return true;
}

void PriorityFirmware::remove(RuleId id) {
  if (!tcam_.contains(id)) return;
  tcam_.erase(tcam_.address_of(id));
}

bool PriorityFirmware::modify(const Rule& rule) {
  if (!tcam_.contains(rule.id)) return insert(rule);
  const Rule& installed = tcam_.rule(rule.id);
  if (installed.priority == rule.priority) {
    // Same band: an in-place entry rewrite suffices (OpenFlow modify keeps
    // the match; only actions can change).
    if (installed.actions != rule.actions) {
      tcam_.modify_actions(rule.id, rule.actions);
    }
    return true;
  }
  // Naive firmware reprioritizes by delete + insert.
  remove(rule.id);
  return insert(rule);
}

bool PriorityFirmware::apply(const compiler::PrioritizedUpdate& update) {
  for (const PrioritizedOp& op : update) {
    switch (op.kind) {
      case PrioritizedOp::Kind::kAdd:
        if (!insert(op.rule)) return false;
        break;
      case PrioritizedOp::Kind::kDelete:
        remove(op.rule.id);
        break;
      case PrioritizedOp::Kind::kModify:
        if (!modify(op.rule)) return false;
        break;
    }
  }
  return true;
}

bool PriorityFirmware::layout_sorted() const {
  const size_t n = tcam_.occupied();
  int32_t prev = INT32_MIN;
  for (size_t k = 0; k < n; ++k) {
    const int32_t p = priority_at(*tcam_.kth_occupied(k));
    if (p < prev) return false;
    prev = p;
  }
  return true;
}

}  // namespace ruletris::tcam
