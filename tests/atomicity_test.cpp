// Per-operation atomicity: the DAG scheduler's moving chains keep the TCAM
// semantically correct after EVERY primitive operation — the property that
// makes RuleTris updates hitless for in-flight traffic. The observer hook
// checks every intermediate device state against the evolving logical table.
#include <gtest/gtest.h>

#include "classbench/generator.h"
#include "dag/builder.h"
#include "tcam/dag_scheduler.h"
#include "test_util.h"
#include "util/logging.h"

namespace ruletris {
namespace {

using dag::build_min_dag;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;
using tcam::DagScheduler;
using tcam::Tcam;
using util::Rng;

/// During an insert's move chain, every packet must still map to the same
/// rule as before the insert began OR to the rule being inserted — never to
/// some unrelated rule that a half-executed chain exposed.
class MidUpdateChecker {
 public:
  MidUpdateChecker(Tcam& tcam, Rng& rng) : tcam_(tcam), rng_(rng) {}

  /// Snapshot the pre-update truth and arm the observer.
  void arm(const FlowTable& pre_update_table, const Rule& incoming) {
    pre_ = &pre_update_table;
    incoming_ = &incoming;
    violations_ = 0;
    checks_ = 0;
    tcam_.set_op_observer([this](Tcam::Op, size_t) { check(); });
  }

  void disarm() { tcam_.set_op_observer(nullptr); }

  size_t violations() const { return violations_; }
  size_t checks() const { return checks_; }

 private:
  void check() {
    for (int k = 0; k < 20; ++k) {
      const Packet p = testutil::random_packet(rng_);
      const Rule* now = tcam_.lookup(p);
      const Rule* before = pre_->lookup(p);
      ++checks_;
      const bool matches_before =
          (now == nullptr && before == nullptr) ||
          (now != nullptr && before != nullptr && now->id == before->id);
      const bool is_incoming = now != nullptr && now->id == incoming_->id &&
                               incoming_->match.matches(p);
      if (!matches_before && !is_incoming) ++violations_;
    }
  }

  Tcam& tcam_;
  Rng& rng_;
  const FlowTable* pre_ = nullptr;
  const Rule* incoming_ = nullptr;
  size_t violations_ = 0;
  size_t checks_ = 0;
};

TEST(Atomicity, DagChainsAreHitless) {
  util::set_log_level(util::LogLevel::kOff);
  Rng rng(99);
  size_t total_checks = 0;
  for (int trial = 0; trial < 6; ++trial) {
    // Build a full table, install all but one rule into a tight TCAM, then
    // insert the last one — chains are forced by the tight capacity.
    const int n = 14 + static_cast<int>(rng.next_below(8));
    std::vector<Rule> rules;
    for (int i = 0; i <= n; ++i) {
      rules.push_back(testutil::random_rule(rng, n + 1 - i));
    }
    FlowTable table{rules};
    const auto graph = build_min_dag(table);

    Tcam tcam(static_cast<size_t>(n + 2));
    DagScheduler scheduler(tcam);
    scheduler.load(graph);

    const auto order = graph.topo_order_high_to_low();
    const RuleId last = order.back();
    for (RuleId id : order) {
      if (id == last) continue;
      ASSERT_TRUE(scheduler.insert(table.rule(id)));
    }

    // Pre-update truth: the table without `last`.
    FlowTable pre = table;
    pre.erase(last);

    MidUpdateChecker checker(tcam, rng);
    checker.arm(pre, table.rule(last));
    ASSERT_TRUE(scheduler.insert(table.rule(last)));
    checker.disarm();

    EXPECT_EQ(checker.violations(), 0u)
        << "a mid-chain state exposed wrong semantics (trial " << trial << ")";
    total_checks += checker.checks();
  }
  EXPECT_GT(total_checks, 200u) << "chains too short to exercise atomicity";
}

TEST(Atomicity, CacheSwapStreamIsHitless) {
  util::set_log_level(util::LogLevel::kOff);
  Rng rng(123);
  const FlowTable fib{classbench::generate_router(150, rng)};
  const auto graph = build_min_dag(fib);

  Tcam tcam(48);
  DagScheduler scheduler(tcam);
  scheduler.load(graph);

  std::vector<RuleId> cached;
  for (RuleId id : graph.topo_order_high_to_low()) {
    if (tcam.occupied() + 4 >= tcam.capacity()) break;
    ASSERT_TRUE(scheduler.insert(fib.rule(id)));
    cached.push_back(id);
  }

  // Each insert during churn must never expose a rule that contradicts the
  // pre-insert TCAM content for packets outside the incoming rule.
  size_t checks = 0, violations = 0;
  for (int step = 0; step < 60; ++step) {
    const size_t out_idx = rng.next_below(cached.size());
    scheduler.evict(cached[out_idx]);  // keeps the vertex and its edges

    RuleId in = 0;
    for (int guard = 0; guard < 200; ++guard) {
      const auto& all = fib.rules();
      const RuleId candidate = all[rng.next_below(all.size())].id;
      if (!tcam.contains(candidate)) {
        in = candidate;
        break;
      }
    }
    if (in == 0) continue;

    // Snapshot pre-insert content in address order (the DAG firmware's
    // layout is priority-free, so address order IS the match order).
    const std::vector<Rule> pre = tcam.entries_high_to_low();
    const Rule& incoming = fib.rule(in);
    tcam.set_op_observer([&](Tcam::Op, size_t) {
      for (int k = 0; k < 5; ++k) {
        Packet p;
        p.set(flowspace::FieldId::kDstIp, rng.next_u32());
        const Rule* now = tcam.lookup(p);
        const Rule* before = testutil::lookup_ordered(pre, p);
        ++checks;
        const bool same = (now == nullptr) == (before == nullptr) &&
                          (now == nullptr || now->id == before->id);
        const bool is_incoming =
            now != nullptr && now->id == in && incoming.match.matches(p);
        if (!same && !is_incoming) ++violations;
      }
    });
    ASSERT_TRUE(scheduler.insert(incoming));
    tcam.set_op_observer(nullptr);
    cached[out_idx] = in;
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(checks, 100u);
}

}  // namespace
}  // namespace ruletris
