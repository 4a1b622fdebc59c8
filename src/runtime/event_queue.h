// Virtual-time event loop.
//
// A min-heap of (due, seq) closures drives each switch session: frame
// deliveries, retransmit timers and agent restarts are all events. Time is
// virtual — it advances to the due time of the event being run, never by
// wall clock — so a session's entire behaviour is a pure function of the
// events posted and the order they were posted in. Ties on `due` break by
// push order, which makes runs bit-identical across machines, optimization
// levels and thread counts (each session owns a private queue).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace ruletris::runtime {

class EventQueue {
 public:
  using Fn = std::function<void()>;

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Due time of the earliest queued event; +inf when the queue is empty.
  /// The compiled fleet's pump uses this to order gated sends against
  /// events without popping anything.
  double next_due() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : std::max(heap_.top().due, now_);
  }

  /// Schedules `fn` at virtual time `due`; a due time in the past fires
  /// "now" (no time travel).
  void post(double due, Fn fn) {
    if (due < now_) due = now_;
    heap_.push(Event{due, seq_++, std::move(fn)});
  }

  /// Pops and runs the earliest event; false when the queue is empty.
  bool run_next() {
    if (heap_.empty()) return false;
    // priority_queue::top() is const; moving the closure out before pop is
    // safe because the heap order does not depend on the closure.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    // max(): after an external advance_to() the heap may still hold events
    // that were due before the new now; they run late, time never rewinds.
    if (ev.due > now_) now_ = ev.due;
    ev.fn();
    return true;
  }

  /// Advances the clock to `t` without running anything — fleet round
  /// barriers park a session here until the slowest peer commits. Events
  /// already queued with due < t fire "late" at t, in due order.
  void advance_to(double t) {
    if (t > now_) now_ = t;
  }

  void clear() { heap_ = {}; }

 private:
  struct Event {
    double due;
    uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  uint64_t seq_ = 0;
  double now_ = 0.0;
};

}  // namespace ruletris::runtime
