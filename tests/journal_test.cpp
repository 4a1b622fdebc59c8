// Crash-consistency unit tests: the write-ahead ApplyJournal lifecycle, the
// DagScheduler's transactional rollback/roll-forward recovery, the typed
// ApplyStatus (kOk / kTableFull / kRolledBack) semantics, and the firmware
// state auditor's violation detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dag/dependency_graph.h"
#include "tcam/apply_journal.h"
#include "tcam/auditor.h"
#include "tcam/backend_update.h"
#include "tcam/dag_scheduler.h"
#include "test_util.h"
#include "util/logging.h"

namespace ruletris {
namespace {

using dag::DependencyGraph;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using tcam::ApplyJournal;
using tcam::ApplyStatus;
using tcam::AuditReport;
using tcam::audit_state;
using tcam::CrashError;
using tcam::DagScheduler;
using tcam::Tcam;

Rule make_rule(uint32_t tag) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, tag);
  return Rule::make(m, ActionList{Action::forward(1)}, 0);
}

TEST(ApplyJournal, LifecycleAndRendering) {
  ApplyJournal journal;
  EXPECT_FALSE(journal.open());

  journal.begin(7);
  EXPECT_TRUE(journal.open());
  EXPECT_FALSE(journal.sealed());
  EXPECT_EQ(journal.txn_id(), 7u);
  EXPECT_THROW(journal.begin(8), std::logic_error);  // one txn at a time

  ApplyJournal::Op move;
  move.kind = ApplyJournal::OpKind::kMove;
  move.from = 3;
  move.to = 5;
  journal.record(move);

  ApplyJournal::Op write;
  write.kind = ApplyJournal::OpKind::kWrite;
  write.to = 3;
  write.u = 42;
  journal.record(write);
  EXPECT_EQ(journal.size(), 2u);

  const std::string rendered = to_string(journal);
  EXPECT_NE(rendered.find("move slot 3 -> 5"), std::string::npos);
  EXPECT_NE(rendered.find("write rule 42 -> slot 3"), std::string::npos);

  journal.seal();
  EXPECT_TRUE(journal.sealed());
  journal.commit();
  EXPECT_FALSE(journal.open());
  EXPECT_EQ(journal.size(), 0u);
}

/// The Fig. 2 scenario rebuilt around fixed Rule objects so snapshots stay
/// comparable across independent instances (Rule::make assigns globally
/// fresh ids, so the rules must be created once, outside).
struct Fig2 {
  Tcam tcam{6};
  ApplyJournal journal;
  std::unique_ptr<DagScheduler> sched;

  explicit Fig2(const std::vector<Rule>& rules) {
    tcam.write(5, rules[0]);
    tcam.write(4, rules[1]);
    tcam.write(3, rules[2]);
    tcam.write(2, rules[3]);
    tcam.write(1, rules[4]);
    sched = std::make_unique<DagScheduler>(tcam);
    DependencyGraph g;
    g.add_edge(rules[1].id, rules[0].id);  // 2 -> 1
    g.add_edge(rules[2].id, rules[0].id);  // 3 -> 1
    g.add_edge(rules[3].id, rules[2].id);  // 4 -> 3
    g.add_edge(rules[4].id, rules[1].id);  // 5 -> 2
    g.add_edge(rules[4].id, rules[3].id);  // 5 -> 4
    sched->load(g);
    sched->set_journal(&journal);
  }
};

/// The Fig. 2 insert as one BackendUpdate, so the DAG delta is journaled
/// alongside the TCAM ops and must roll back with them.
tcam::BackendUpdate fig2_update(const std::vector<Rule>& rules, const Rule& r6) {
  tcam::BackendUpdate update;
  update.added.push_back(r6);
  update.dag.added_vertices.push_back(r6.id);
  update.dag.added_edges = {{r6.id, rules[0].id},
                            {rules[1].id, r6.id},
                            {rules[4].id, r6.id}};
  return update;
}

std::vector<std::pair<RuleId, RuleId>> sorted_edges(const DependencyGraph& g) {
  auto edges = g.edges();
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Crash at EVERY injection point of the Fig. 2 chain-moving update. Each
/// torn transaction must recover to exactly the pre-update state (rollback)
/// or exactly the applied state (roll-forward at the seal->commit gap), pass
/// the auditor, and then accept a clean re-apply to the reference layout.
TEST(CrashRecovery, EveryCrashPointRecoversToAnEndpointState) {
  std::vector<Rule> rules;
  for (uint32_t i = 1; i <= 5; ++i) rules.push_back(make_rule(i));
  const Rule r6 = make_rule(6);
  const tcam::BackendUpdate update = fig2_update(rules, r6);

  // Reference run: no crash. Also counts the injection points (one per
  // journaled op plus the commit-point check after seal()).
  size_t total_points = 0;
  Fig2 ref(rules);
  ref.sched->set_crash_hook([&] {
    ++total_points;
    return false;
  });
  const std::string pre_layout = ref.tcam.to_string();  // before: shared start
  {
    Fig2 pristine(rules);
    ASSERT_EQ(pristine.tcam.to_string(), pre_layout);  // snapshots comparable
  }
  ASSERT_EQ(ref.sched->apply_status(update), ApplyStatus::kOk);
  EXPECT_EQ(ref.sched->last_chain_moves(), 2u);  // still the Fig. 2 chain
  const std::string applied_layout = ref.tcam.to_string();
  const auto applied_edges = sorted_edges(ref.sched->graph());
  // TCAM ops + DAG delta ops + the commit-point check.
  ASSERT_GE(total_points, 1u + 3u + 2u + 1u + 1u);

  for (size_t k = 1; k <= total_points; ++k) {
    Fig2 torn(rules);
    const auto pre_edges = sorted_edges(torn.sched->graph());
    size_t calls = 0;
    torn.sched->set_crash_hook([&calls, k] { return ++calls == k; });
    EXPECT_THROW(torn.sched->apply_status(update), CrashError) << "point " << k;
    EXPECT_TRUE(torn.journal.open()) << "point " << k;

    const DagScheduler::RecoveryResult r = torn.sched->recover();
    EXPECT_FALSE(torn.journal.open()) << "point " << k;
    const AuditReport audit = audit_state(torn.tcam, torn.sched->graph());
    EXPECT_TRUE(audit.clean()) << "point " << k << "\n" << audit.to_string();
    EXPECT_TRUE(torn.sched->layout_valid()) << "point " << k;
    // The undo ran through the primitives: the cap cells are exact.
    EXPECT_TRUE(testutil::caps_exact(*torn.sched, torn.tcam)) << "point " << k;

    if (r.outcome == DagScheduler::RecoveryResult::Outcome::kRolledForward) {
      // Only the very last point (between seal and commit) rolls forward.
      EXPECT_EQ(k, total_points);
      EXPECT_EQ(torn.tcam.to_string(), applied_layout) << "point " << k;
      EXPECT_EQ(sorted_edges(torn.sched->graph()), applied_edges);
      EXPECT_EQ(r.undone_ops, 0u);
    } else {
      EXPECT_EQ(r.outcome, DagScheduler::RecoveryResult::Outcome::kRolledBack);
      EXPECT_EQ(torn.tcam.to_string(), pre_layout) << "point " << k;
      EXPECT_EQ(sorted_edges(torn.sched->graph()), pre_edges);
      // The update never happened: a clean re-apply lands on the reference.
      ASSERT_EQ(torn.sched->apply_status(update), ApplyStatus::kOk)
          << "point " << k;
      EXPECT_EQ(torn.tcam.to_string(), applied_layout) << "point " << k;
      EXPECT_EQ(sorted_edges(torn.sched->graph()), applied_edges);
    }
  }
}

TEST(CrashRecovery, RecoverOnCleanJournalIsANoop) {
  std::vector<Rule> rules;
  for (uint32_t i = 1; i <= 5; ++i) rules.push_back(make_rule(i));
  Fig2 fig(rules);
  const std::string before = fig.tcam.to_string();
  const DagScheduler::RecoveryResult r = fig.sched->recover();
  EXPECT_EQ(r.outcome, DagScheduler::RecoveryResult::Outcome::kClean);
  EXPECT_EQ(r.undone_ops, 0u);
  EXPECT_EQ(fig.tcam.to_string(), before);
}

TEST(ApplyStatusSemantics, FullTableWithNothingExecutedIsTableFull) {
  Tcam tcam(2);
  ApplyJournal journal;
  DagScheduler sched(tcam);
  sched.set_journal(&journal);
  ASSERT_EQ(sched.insert_status(make_rule(1)), ApplyStatus::kOk);
  ASSERT_EQ(sched.insert_status(make_rule(2)), ApplyStatus::kOk);

  // The rule's vertex already exists, so the failing insert journals
  // nothing: a pure capacity rejection, not a rollback.
  const Rule r3 = make_rule(3);
  tcam::BackendUpdate add_vertex;
  add_vertex.dag.added_vertices.push_back(r3.id);
  ASSERT_EQ(sched.apply_status(add_vertex), ApplyStatus::kOk);
  util::set_log_level(util::LogLevel::kOff);
  EXPECT_EQ(sched.insert_status(r3), ApplyStatus::kTableFull);
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_FALSE(journal.open());
  EXPECT_EQ(tcam.occupied(), 2u);
  EXPECT_TRUE(audit_state(tcam, sched.graph()).clean());
}

/// Everything a rejected update must leave as it was: the layout, the
/// graph's edge set and the live cap cells.
struct DeviceState {
  std::string layout;
  std::vector<std::pair<RuleId, RuleId>> edges;

  DeviceState(const Tcam& tcam, const DagScheduler& sched)
      : layout(tcam.to_string()), edges(sorted_edges(sched.graph())) {}
  bool operator==(const DeviceState&) const = default;
};

TEST(ApplyStatusSemantics, OverflowingUpdateIsRejectedUntouched) {
  Tcam tcam(3);
  ApplyJournal journal;
  DagScheduler sched(tcam);
  sched.set_journal(&journal);
  size_t hook_calls = 0;
  sched.set_crash_hook([&hook_calls] {
    ++hook_calls;
    return false;
  });
  std::vector<Rule> installed;
  for (uint32_t i = 1; i <= 3; ++i) {
    installed.push_back(make_rule(i));
    ASSERT_EQ(sched.insert_status(installed.back()), ApplyStatus::kOk);
  }
  const DeviceState before(tcam, sched);
  const size_t recorded = journal.total_recorded();
  const size_t consulted = hook_calls;

  // Two fresh rules against zero free slots: rejected before the vertex
  // adds run, so nothing is journaled and no crash point is consulted.
  tcam::BackendUpdate update;
  update.added.push_back(make_rule(10));
  update.added.push_back(make_rule(11));
  for (const Rule& r : update.added) update.dag.added_vertices.push_back(r.id);

  util::set_log_level(util::LogLevel::kOff);
  EXPECT_EQ(sched.apply_status(update), ApplyStatus::kTableFull);
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_FALSE(journal.open());
  EXPECT_EQ(journal.total_recorded(), recorded);
  EXPECT_EQ(hook_calls, consulted);
  EXPECT_TRUE(DeviceState(tcam, sched) == before);
  for (const Rule& r : update.added) {
    EXPECT_FALSE(sched.graph().has_vertex(r.id));
  }
  EXPECT_TRUE(testutil::caps_exact(sched, tcam));
  const AuditReport audit = audit_state(tcam, sched.graph(), installed);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

/// An insert whose range is inverted (its predecessor P sits above its
/// successor S) on a full TCAM. The repair would erase P, place the rule,
/// then find no slot for P; the capacity check rejects the update first,
/// so the device, the graph and the cap cells are untouched, journaled or
/// not, and a journaled rejection records nothing and consults no crash
/// point.
TEST(ApplyStatusSemantics, InvertedRangeInsertOnFullTableIsRejectedUntouched) {
  const Rule a = make_rule(1), s = make_rule(2), p = make_rule(3), r = make_rule(4);
  for (const bool journaled : {false, true}) {
    Tcam tcam(3);
    DagScheduler sched(tcam);
    DependencyGraph g;
    for (const Rule& x : {a, s, p}) g.add_vertex(x.id);
    DagScheduler::Layout layout;
    layout.entries = {{0, a}, {1, s}, {2, p}};
    sched.load(std::move(g), std::move(layout));
    ApplyJournal journal;
    size_t hook_calls = 0;
    if (journaled) {
      sched.set_journal(&journal);
      sched.set_crash_hook([&hook_calls] {
        ++hook_calls;
        return false;
      });
    }
    const DeviceState before(tcam, sched);

    tcam::BackendUpdate update;
    update.added.push_back(r);
    update.dag.added_vertices.push_back(r.id);
    update.dag.added_edges = {{p.id, r.id}, {r.id, s.id}};  // p below r below s

    util::set_log_level(util::LogLevel::kOff);
    EXPECT_EQ(sched.apply_status(update), ApplyStatus::kTableFull) << journaled;
    util::set_log_level(util::LogLevel::kWarn);
    EXPECT_TRUE(DeviceState(tcam, sched) == before) << journaled << "\n" << tcam.to_string();
    EXPECT_FALSE(sched.graph().has_vertex(r.id)) << journaled;
    EXPECT_TRUE(testutil::caps_exact(sched, tcam)) << journaled;
    EXPECT_EQ(journal.total_recorded(), 0u);
    EXPECT_EQ(hook_calls, 0u);
  }
}

/// A wire batch may list an id twice in `removed`; its slot is freed once,
/// so two inserts against one freed slot are rejected untouched, while two
/// distinct removals make room for them.
TEST(ApplyStatusSemantics, DuplicateRemovedIdIsCountedOnce) {
  Tcam tcam(3);
  DagScheduler sched(tcam);
  std::vector<Rule> installed;
  for (uint32_t i = 1; i <= 3; ++i) {
    installed.push_back(make_rule(i));
    ASSERT_TRUE(sched.insert(installed.back()));
  }
  const DeviceState before(tcam, sched);

  tcam::BackendUpdate update;
  update.removed = {installed[0].id, installed[0].id};
  update.added = {make_rule(10), make_rule(11)};
  for (const Rule& r : update.added) update.dag.added_vertices.push_back(r.id);
  util::set_log_level(util::LogLevel::kOff);
  EXPECT_EQ(sched.apply_status(update), ApplyStatus::kTableFull);
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_TRUE(DeviceState(tcam, sched) == before);
  EXPECT_TRUE(sched.graph().has_vertex(installed[0].id));

  update.removed = {installed[0].id, installed[1].id};
  EXPECT_EQ(sched.apply_status(update), ApplyStatus::kOk);
  EXPECT_EQ(tcam.occupied(), 3u);
  EXPECT_TRUE(sched.layout_valid());
}

/// kRolledBack is left to malformed input: a batch whose new rules depend
/// on each other in a cycle (a -> b, b -> a). The batch's free rule c is
/// installed before the Kahn order stalls, so the journal must undo c's
/// write along with the vertex and edge adds: device, graph and cap cells
/// end as they began.
TEST(ApplyStatusSemantics, CyclicBatchRollsBackAndAuditsClean) {
  Tcam tcam(6);
  ApplyJournal journal;
  DagScheduler sched(tcam);
  sched.set_journal(&journal);
  std::vector<Rule> installed;
  for (uint32_t i = 1; i <= 2; ++i) {
    installed.push_back(make_rule(i));
    ASSERT_EQ(sched.insert_status(installed.back()), ApplyStatus::kOk);
  }
  const DeviceState before(tcam, sched);

  const Rule a = make_rule(10), b = make_rule(11), c = make_rule(12);
  tcam::BackendUpdate update;
  update.added = {c, a, b};
  for (const Rule& r : update.added) update.dag.added_vertices.push_back(r.id);
  update.dag.added_edges = {{a.id, b.id}, {b.id, a.id}, {installed[0].id, c.id}};

  util::set_log_level(util::LogLevel::kOff);
  EXPECT_EQ(sched.apply_status(update), ApplyStatus::kRolledBack);
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_FALSE(journal.open());
  EXPECT_TRUE(DeviceState(tcam, sched) == before) << tcam.to_string();
  for (const Rule& r : update.added) EXPECT_FALSE(sched.graph().has_vertex(r.id));
  EXPECT_TRUE(testutil::caps_exact(sched, tcam));
  const AuditReport audit = audit_state(tcam, sched.graph(), installed);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(Auditor, CleanStateReportsNoViolations) {
  Tcam tcam(4);
  DagScheduler sched(tcam);
  std::vector<Rule> rules;
  for (uint32_t i = 1; i <= 3; ++i) {
    rules.push_back(make_rule(i));
    ASSERT_TRUE(sched.insert(rules.back()));
  }
  const AuditReport audit = audit_state(tcam, sched.graph(), rules);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  EXPECT_EQ(audit.entries_checked, 3u);
}

TEST(Auditor, DetectsAddressOrderViolation) {
  // u at address 2, v at address 1, edge u -> v: v must sit ABOVE u.
  Tcam tcam(4);
  const Rule u = make_rule(1);
  const Rule v = make_rule(2);
  tcam.write(2, u);
  tcam.write(1, v);
  DependencyGraph g;
  g.add_edge(u.id, v.id);
  const AuditReport audit = audit_state(tcam, g);
  EXPECT_FALSE(audit.clean());
  EXPECT_NE(audit.to_string().find("edge"), std::string::npos);
}

TEST(Auditor, DetectsOrphanEntryWithoutVertex) {
  Tcam tcam(4);
  const Rule r = make_rule(1);
  tcam.write(0, r);
  const DependencyGraph empty_graph;
  const AuditReport audit = audit_state(tcam, empty_graph);
  EXPECT_FALSE(audit.clean());
}

TEST(Auditor, DetectsExpectedSetMismatches) {
  Tcam tcam(4);
  DependencyGraph g;
  const Rule installed = make_rule(1);
  const Rule missing = make_rule(2);
  tcam.write(0, installed);
  g.add_vertex(installed.id);

  // Missing expected rule + unexpected installed rule.
  const AuditReport wrong_set = audit_state(tcam, g, {missing});
  EXPECT_FALSE(wrong_set.clean());

  // Right id, wrong actions: a torn chain must not silently change what a
  // rule does.
  Rule tampered = installed;
  tampered.actions = ActionList{Action::drop()};
  const AuditReport wrong_actions = audit_state(tcam, g, {tampered});
  EXPECT_FALSE(wrong_actions.clean());

  const AuditReport exact = audit_state(tcam, g, {installed});
  EXPECT_TRUE(exact.clean()) << exact.to_string();
}

}  // namespace
}  // namespace ruletris
