// Heap-allocation budget of the compile-in-the-loop fleet path.
//
// Replaces the global operator new to count calls, then drives the
// fleet_churn per-switch task (monitor(24) ∥ router(16), bursty churn, 24
// epochs, in a private rule-id namespace) through the layers the compiled
// fleet runs: ChurnEngine -> proto::encode_batch -> proto::decode_batch ->
// SimulatedSwitch::apply. It pins three ceilings: heap allocations per
// churned rule op inside ChurnEngine::step(), per engine construction (the
// initial compile), and per rule op on the switch side (encode + decode +
// apply, the initial install included). Each ceiling sits a little above
// the count this tree measures, so a change that puts the allocator back on
// the compile or apply path fails here even when the fleet fingerprints do
// not move.
//
// Sanitizer runtimes allocate on their own behalf, so the counts only mean
// something in plain builds: the tests skip under ASan and TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "classbench/generator.h"
#include "compiler/policy_spec.h"
#include "proto/codec.h"
#include "runtime/workload.h"
#include "switchsim/switch.h"
#include "util/hash.h"
#include "util/rng.h"

namespace {

std::atomic<size_t> g_news{0};

void* counted_alloc(size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return counted_alloc(n); }
void* operator new[](size_t n) { return counted_alloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace ruletris {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr size_t kSwitches = 64;
constexpr size_t kUpdatesPerSwitch = 24;
constexpr size_t kTcamEntries = 256;

// Ceilings: the counts measured at 64 switches, seed 1 (12.1 per churned
// op, 386 per engine, 7.7 per switch-side rule op) plus headroom for
// standard-library and optimisation level differences. With the node-map
// DependencyGraph of per-vertex hash sets the same run read 13.3, 461 and
// 9.0; before bursts were netted through one ChurnLog, 14.4 per churned op;
// and before the allocation-lean compile step, 57.7 and 1,041.
constexpr double kMaxAllocsPerChurnedOp = 12.5;
constexpr double kMaxAllocsPerEngine = 400.0;
constexpr double kMaxAllocsPerWireOp = 8.0;

/// One switch's fleet_churn task, as perfbench builds it.
struct Task {
  compiler::PolicySpec spec;
  std::map<std::string, flowspace::FlowTable> tables;
  runtime::ChurnSpec churn;
};

Task make_task(uint64_t seed, size_t sw) {
  Task task;
  util::Rng rng(util::hash_pair(seed, sw + 1));
  task.tables.emplace("mon",
                      flowspace::FlowTable{classbench::generate_monitor(24, rng)});
  task.tables.emplace("rtr", flowspace::FlowTable{classbench::generate_router(16, rng)});
  task.spec = compiler::PolicySpec::parallel(compiler::PolicySpec::leaf("mon"),
                                             compiler::PolicySpec::leaf("rtr"));
  task.churn.leaf = "mon";
  task.churn.updates = kUpdatesPerSwitch;
  task.churn.seed = util::hash_pair(seed ^ 0x9e3779b97f4a7c15ULL, sw + 1);
  task.churn.burst = runtime::BurstSpec{.enabled = true};
  return task;
}

struct Tally {
  size_t engines = 0;
  size_t engine_allocs = 0;
  size_t churned_ops = 0;
  size_t step_allocs = 0;
  size_t wire_ops = 0;  // rule ops of every epoch, the initial install included
  size_t wire_allocs = 0;
};

Tally run_fleet_tasks(uint64_t seed) {
  // Counts are deterministic: the tasks, their ids and the standard
  // library's growth policies are all fixed.
  Tally tally;
  for (size_t sw = 0; sw < kSwitches; ++sw) {
    flowspace::RuleId ids = static_cast<flowspace::RuleId>(sw + 1) << 32;
    flowspace::ScopedRuleIdNamespace ns(&ids);
    Task task = make_task(seed, sw);
    size_t before = g_news.load(std::memory_order_relaxed);
    runtime::ChurnEngine engine(task.spec, std::move(task.tables), task.churn);
    tally.engine_allocs += g_news.load(std::memory_order_relaxed) - before;
    ++tally.engines;

    switchsim::SimulatedSwitch device(switchsim::FirmwareMode::kDag, kTcamEntries);
    while (!engine.done()) {
      const bool churn = engine.produced() > 0;
      before = g_news.load(std::memory_order_relaxed);
      runtime::ChurnEngine::Step step = engine.step();
      if (churn) {
        tally.step_allocs += g_news.load(std::memory_order_relaxed) - before;
        tally.churned_ops += step.ops;
      }
      before = g_news.load(std::memory_order_relaxed);
      const proto::Bytes wire = proto::encode_batch(step.batch);
      const switchsim::UpdateMetrics m = device.apply(proto::decode_batch(wire));
      tally.wire_allocs += g_news.load(std::memory_order_relaxed) - before;
      tally.wire_ops += step.ops;
      EXPECT_TRUE(m.ok) << "switch " << sw << " epoch " << engine.produced();
    }
  }
  return tally;
}

double ratio(size_t num, size_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

TEST(AllocBudget, FleetChurnCompileStepStaysUnderCeilings) {
  if (kSanitized) GTEST_SKIP() << "sanitizer runtimes allocate on their own";
  const Tally t = run_fleet_tasks(1);
  ASSERT_EQ(t.engines, kSwitches);
  ASSERT_GT(t.churned_ops, kSwitches * kUpdatesPerSwitch);  // bursts > 1 op
  const double per_op = ratio(t.step_allocs, t.churned_ops);
  const double per_engine = ratio(t.engine_allocs, t.engines);
  const double wire_per_op = ratio(t.wire_allocs, t.wire_ops);
  std::printf("[alloc] step: %.1f per churned rule op (%zu ops); engine: %.0f per "
              "construction; encode+decode+apply: %.1f per rule op\n",
              per_op, t.churned_ops, per_engine, wire_per_op);
  RecordProperty("allocs_per_churned_op", std::to_string(per_op));
  RecordProperty("allocs_per_engine", std::to_string(per_engine));
  RecordProperty("allocs_per_wire_op", std::to_string(wire_per_op));
  EXPECT_LE(per_op, kMaxAllocsPerChurnedOp);
  EXPECT_LE(per_engine, kMaxAllocsPerEngine);
  EXPECT_LE(wire_per_op, kMaxAllocsPerWireOp);
}

}  // namespace
}  // namespace ruletris
