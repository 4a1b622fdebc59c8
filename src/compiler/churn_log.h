// One log of visible-state churn, and one netting routine.
//
// The incremental compiler's output is a set change (Sec. III-B: "rule
// inserts, deletes and modifications together with the updates to the
// DAG"). A composed node's mutation paths append signed events here in
// O(1): a visible rule or edge appears (+1) or disappears (-1), a member
// entry is added or removed. Within one update a representative may be
// demoted and restored, an edge added and removed again. Two views net the
// events: build(mark) gives one update's TableUpdate from the events since
// `mark`; take() gives one epoch's churn, from which frozen::seal_recorded
// derives the epoch delta. chain_updates and ChurnEngine's bursts append
// finished TableUpdates and build once, in one pass whatever the length.
//
// Netting sorts each kind of event by (key, log position) and reads each
// key's first and last event: present before iff the first removes it,
// present now iff the last adds it. So every emitted list is ascending, by
// rule id or by (u, v) edge, however the events arrived: no container's
// visit order reaches the wire, the TCAM or a fingerprint, and only the
// relative order of rule ids matters, never their values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "compiler/update.h"

namespace ruletris::compiler {

class ChurnLog {
 public:
  using Edge = std::pair<RuleId, RuleId>;

  /// Visible rule `rule.id` became visible (with this match and actions).
  void add_rule(const Rule& rule) {
    visible_.push_back({rule.id, visible_.size(), +1, rules_.size()});
    rules_.push_back(rule);
  }
  /// Visible rule `id` is no longer visible.
  void remove_rule(RuleId id) { visible_.push_back({id, visible_.size(), -1, 0}); }
  void add_edge(RuleId u, RuleId v) { edges_.push_back({{u, v}, edges_.size(), +1, 0}); }
  void remove_edge(RuleId u, RuleId v) {
    edges_.push_back({{u, v}, edges_.size(), -1, 0});
  }
  /// Member entries (read by take() only; ids are fresh on every add).
  void entry_added(RuleId id) { entries_.push_back({id, entries_.size(), +1, 0}); }
  void entry_removed(RuleId id) { entries_.push_back({id, entries_.size(), -1, 0}); }

  /// Replays a netted update: its removed edges, removed rules, added rules
  /// and added edges, in that order.
  void append(const TableUpdate& update);

  /// Where the next update's events start.
  struct Mark {
    size_t visible = 0;
    size_t edges = 0;
  };
  Mark mark() const { return {visible_.size(), edges_.size()}; }

  /// The net update of the events since `from`: removed ids, then added
  /// rules (a rule removed and re-added is listed in both, so the consumer
  /// refreshes it), each ascending by id, and the DAG delta whose vertex
  /// lists mirror them. Edges are ascending (u, v) pairs; an edge touching
  /// a rule that is not visible now is left out (removing a vertex removes
  /// its edges), and so is an edge present before and now unless an
  /// endpoint was refreshed (the consumer dropped it with the vertex). The
  /// events stay in the log, reordered, for a later take().
  TableUpdate build(const Mark& from);
  TableUpdate build() { return build(Mark{}); }

  /// One epoch's net churn, every list ascending.
  struct Net {
    std::vector<RuleId> entries_removed;
    std::vector<RuleId> entries_added;
    std::vector<RuleId> visible_removed;
    std::vector<RuleId> visible_added;
    std::vector<Edge> edges_removed;
    std::vector<Edge> edges_added;
  };
  /// Nets and clears every event. Throws std::logic_error when some key's
  /// events do not alternate between adding and removing it (an id made
  /// visible twice, an edge removed twice), which an exact log never does.
  Net take();

  void clear();

 private:
  template <typename Key>
  struct Event {
    Key key;
    size_t seq;   // log position when appended: orders one key's events
    int sign;     // +1 appears, -1 disappears
    size_t rule;  // visible +1 events: index into rules_
  };

  std::vector<Event<RuleId>> visible_;
  std::vector<Event<Edge>> edges_;
  std::vector<Event<RuleId>> entries_;
  std::vector<Rule> rules_;

  // build()'s scratch: the rules touched since the mark, ascending, and the
  // edges that net to a change.
  struct Touched {
    RuleId id;
    bool before;
    bool now;
    size_t rule;  // index into rules_ when `now`
  };
  std::vector<Touched> touched_;
  std::vector<std::pair<Edge, bool>> netted_edges_;
};

}  // namespace ruletris::compiler
